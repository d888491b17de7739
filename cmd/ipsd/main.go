// Command ipsd serves the inner-product search & join API over HTTP.
//
// Usage:
//
//	ipsd [-addr :7070] [-shards 4] [-cache 4096] [-workers 0] [-pprof addr]
//	     [-data dir] [-fsync always|interval|never] [-fsync-interval 100ms]
//	     [-checkpoint-bytes 67108864]
//	     [-default-timeout 0] [-max-inflight 0] [-max-queue 0]
//	     [-max-body-bytes 33554432]
//	     [-recover strict|quarantine] [-scrub-interval 0]
//	     [-read-timeout 30s] [-write-timeout 60s] [-idle-timeout 2m]
//	     [-trace] [-trace-buffer 32] [-slow-query-ms 0]
//	     [-log-format text|json]
//	     [-fault-ops ...] [-fault-rate p] [-fault-count n] [-fault-seed s]
//
// Collections are created lazily by the first PUT /collections/{name};
// see the README for the JSON API and a curl quickstart. -pprof serves
// net/http/pprof on a separate listener (e.g. -pprof localhost:6060)
// so profiles never share a port with — or leak onto — the public API.
//
// With -data, every collection is durable: ingests are written to a
// per-collection WAL before they are acknowledged (per the -fsync
// policy), the WAL is compacted into columnar segment snapshots once
// it exceeds -checkpoint-bytes, and a restart recovers every
// collection from its manifest, newest valid segment and WAL tail.
//
// Collections created with "precision": "int8" store a quantized scan
// copy alongside the exact f64 rows. An int8 search re-ranks the
// candidates its quantization error bound certifies through the f64
// rows, so it answers as the f64 exact scan does. "f32" is no longer a
// precision: creating such a collection is refused, and one in a data
// directory reopens as f64 of the same kind.
//
// -trace (on by default) gives every request a trace: W3C traceparent
// headers are honored and echoed, per-stage timings feed the
// ipsd_stage_seconds histograms, the last -trace-buffer traces per
// route are browsable at /debug/requests and /debug/trace/{id}, and
// requests slower than -slow-query-ms (0 disables) emit one structured
// log line carrying the full span tree. -log-format json switches all
// logging to one-JSON-object-per-line for machine ingestion.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the HTTP listener stops
// accepting, in-flight requests drain, and the WALs are flushed and
// fsynced before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/errfs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	shards := flag.Int("shards", 4, "default shards per collection")
	cache := flag.Int("cache", 4096, "query cache capacity (negative disables)")
	workers := flag.Int("workers", 0, "search and join pool workers (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "hashing seed")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	dataDir := flag.String("data", "", "data directory for durable collections (empty = in-memory only)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
	ckptBytes := flag.Int64("checkpoint-bytes", 64<<20, "WAL bytes before compacting into a segment snapshot")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for queries that carry no timeout_ms (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing queries per collection (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "queries allowed to wait for an admission slot before shedding with 429 (negative = unbounded)")
	maxBody := flag.Int64("max-body-bytes", 32<<20, "request body cap on every route that reads one (negative disables)")
	recoverMode := flag.String("recover", "strict", "boot behavior when a collection fails recovery: strict (fail the boot) | quarantine (serve it as 503, directory untouched)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background segment integrity scrub period per collection (0 disables)")
	tracing := flag.Bool("trace", true, "per-request tracing: /debug/requests, /debug/trace/{id}, ipsd_stage_seconds")
	traceBuffer := flag.Int("trace-buffer", 0, "finished traces kept per route for the debug endpoints (0 = built-in default)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log one structured line (with the full span tree) for requests slower than this; 0 disables")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	faultOps := flag.String("fault-ops", "", "CHAOS: comma-separated fs operation classes to fault (write,sync,rename,...); empty disables injection")
	faultRate := flag.Float64("fault-rate", 0, "CHAOS: per-call fault probability for -fault-ops (0 = every eligible call)")
	faultCount := flag.Int("fault-count", 0, "CHAOS: faults to inject per op class before the schedule heals (0 = unlimited)")
	faultAfter := flag.Int("fault-after", 0, "CHAOS: let this many matching calls through before faults may fire")
	faultSeed := flag.Uint64("fault-seed", 1, "CHAOS: seed for the probabilistic fault schedule (reproducible runs)")
	faultPath := flag.String("fault-path", "", "CHAOS: only fault paths containing this substring")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout (0 disables)")
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text", "":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fatal(fmt.Errorf("-log-format: unknown format %q (want text or json)", *logFormat))
	}

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			slog.Info("ipsd: pprof serving", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				slog.Error("ipsd: pprof", "error", err)
			}
		}()
	}

	// -fault-ops turns the production filesystem into a seeded fault
	// injector: the chaos smoke runs a real ipsd process against a
	// finite, reproducible schedule of disk faults and then verifies
	// reads stayed clean and the collections healed.
	var fsys errfs.FS
	if *faultOps != "" {
		faulty := errfs.NewFaulty(nil, *faultSeed)
		for _, spelling := range strings.Split(*faultOps, ",") {
			op, err := errfs.ParseOp(strings.TrimSpace(spelling))
			if err != nil {
				fatal(fmt.Errorf("-fault-ops: %w", err))
			}
			faulty.Inject(errfs.Rule{
				Op:    op,
				Path:  *faultPath,
				After: *faultAfter,
				Count: *faultCount,
				Prob:  *faultRate,
			})
		}
		slog.Warn("ipsd: CHAOS fault injection armed",
			"ops", *faultOps, "rate", *faultRate, "count", *faultCount,
			"after", *faultAfter, "seed", *faultSeed, "path", *faultPath)
		fsys = faulty
	}

	srv, err := server.Open(server.Config{
		DefaultShards:   *shards,
		CacheCapacity:   *cache,
		Workers:         *workers,
		Seed:            *seed,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncEvery,
		CheckpointBytes: *ckptBytes,
		RecoverMode:     *recoverMode,
		ScrubInterval:   *scrubInterval,
		FS:              fsys,
		DefaultTimeout:  *defaultTimeout,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		MaxBodyBytes:    *maxBody,
		Tracing:         *tracing,
		TraceBuffer:     *traceBuffer,
		SlowQueryMS:     *slowQueryMS,
	})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		total := 0
		for _, name := range srv.Collections() {
			if c, ok := srv.Collection(name); ok {
				total += c.Len()
			}
		}
		slog.Info("ipsd: recovered collections",
			"collections", len(srv.Collections()), "records", total,
			"data_dir", *dataDir, "fsync", *fsync)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           server.NewHandler(srv),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		slog.Info("ipsd: shutting down", "signal", s.String())
		// Stop accepting and drain in-flight requests (which also
		// quiesces the worker pool and any durable ingests)...
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			slog.Error("ipsd: shutdown", "error", err)
		}
	}()

	slog.Info("ipsd: listening", "addr", *addr, "shards", *shards,
		"cache", *cache, "workers", srv.Stats().Workers, "trace", *tracing)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
	// ...then flush and fsync every collection's WAL so the final
	// acknowledged writes are durable even under -fsync interval/never.
	if err := srv.Close(); err != nil {
		slog.Error("ipsd: close", "error", err)
		os.Exit(1)
	}
	slog.Info("ipsd: wal flushed, bye")
}

// fatal logs through the configured slog handler and exits nonzero,
// the slog equivalent of log.Fatalf.
func fatal(err error) {
	slog.Error("ipsd: fatal", "error", err)
	os.Exit(1)
}
