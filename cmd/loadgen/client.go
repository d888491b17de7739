package main

// The one HTTP client every mode sends through, and the in-process
// server it talks to when no -addr is given.
//
// ipsd answers 429 when admission control sheds a query and 503 when a
// collection is degraded, quarantined or closing — both carry a
// Retry-After hint and both are expected to clear on their own (a freed
// slot, a background repair). With -retries > 0 the client absorbs them
// with capped exponential backoff plus full jitter instead of failing
// the run, which is how a production client should consume a server
// that degrades deliberately.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

const (
	retryBaseBackoff = 25 * time.Millisecond
	retryMaxBackoff  = 2 * time.Second
)

// client sends JSON requests with a traceparent and retries.
type client struct {
	http    *http.Client
	retries int          // additional attempts per request after a retryable status
	retried atomic.Int64 // retry attempts actually sent
}

func newClient(timeout time.Duration, retries int) *client {
	return &client{http: &http.Client{Timeout: timeout}, retries: retries}
}

// reply is the final response to one logical request.
type reply struct {
	status     int // 0 when no response arrived
	retryAfter bool
	traceID    string // the trace id of the request's traceparent
	body       []byte
}

// do sends one JSON request and returns the final response, whatever
// its status. Every request carries a client-minted W3C traceparent:
// one trace id per logical request, a fresh span id per attempt, so a
// traced server stitches the client's requests into its /debug plane.
// With retries > 0 the transient statuses (429/503) are retried with
// capped exponential backoff and jitter, honoring Retry-After; only the
// final attempt's response is returned, so a retried-away shed counts
// as served — the client experience the SLO report grades.
func (c *client) do(method, url string, body any) (reply, error) {
	var r reply
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return r, err
		}
	}
	r.traceID, _ = trace.NewIDs()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(payload))
		if err != nil {
			return r, err
		}
		req.Header.Set("Content-Type", "application/json")
		_, spanID := trace.NewIDs()
		req.Header.Set("traceparent", trace.Format(r.traceID, spanID))
		resp, err := c.http.Do(req)
		if err != nil {
			return r, err
		}
		ra := resp.Header.Get("Retry-After")
		if retryableStatus(resp.StatusCode) && attempt < c.retries {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			c.retried.Add(1)
			time.Sleep(retryDelay(attempt+1, ra))
			continue
		}
		r.status, r.retryAfter = resp.StatusCode, ra != ""
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return r, err
	}
}

// call runs one JSON round-trip through do, requires a 200, and decodes
// the body into out unless out is nil. Any other status is an error
// carrying the server's {"error": ...} message.
func (c *client) call(method, url string, body, out any) error {
	r, err := c.do(method, url, body)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(r.body, &e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("%d %s", r.status, http.StatusText(r.status))
		}
		return fmt.Errorf("%s %s: %s", method, url, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// retryableStatus reports whether a response is worth retrying: 429
// (shed) and 503 (unavailable) are transient by the server's contract;
// everything else is either success or a request the client got wrong.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryDelay is the sleep before retry n (1-based): capped exponential
// backoff with full jitter — uniform over (0, cap] so synchronized
// clients spread out instead of retrying in lockstep — raised to the
// server's Retry-After hint when one was sent and larger.
func retryDelay(n int, retryAfter string) time.Duration {
	backoff := retryBaseBackoff
	for i := 1; i < n && backoff < retryMaxBackoff; i++ {
		backoff *= 2
	}
	if backoff > retryMaxBackoff {
		backoff = retryMaxBackoff
	}
	d := time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

// serve returns the base URL of the server at addr and a func that
// stops it. An empty addr starts an in-process ipsd with cfg on a free
// loopback port; otherwise nothing is started and stop does nothing.
func serve(addr string, cfg server.Config) (string, func(), error) {
	if addr != "" {
		if !strings.HasPrefix(addr, "http") {
			addr = "http://" + addr
		}
		return addr, func() {}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	hs := &http.Server{Handler: server.NewHandler(srv)}
	go func() {
		if err := hs.Serve(ln); err != http.ErrServerClosed {
			log.Printf("loadgen: serve: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}, nil
}
