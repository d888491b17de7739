// Per-collection failure domains. A collection is its own blast
// radius: disk faults degrade or quarantine that one collection while
// the rest of the server keeps serving.
//
//	active      — everything works.
//	degraded    — the WAL latched a write/sync failure or a scrub found
//	              a corrupt segment. Reads keep serving the last
//	              published snapshots; mutations fail closed with 503.
//	              A background repair probe retries with capped
//	              exponential backoff and restores active on success.
//	quarantined — boot-time recovery failed under -recover=quarantine.
//	              The data directory is left untouched for forensics;
//	              reads and writes both 503 (there is no trustworthy
//	              snapshot to serve). DELETE still works so an operator
//	              can discard the collection.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/errfs"
	"repro/internal/persist"
)

// HealthState is a collection's failure-domain state.
type HealthState int32

const (
	HealthActive HealthState = iota
	HealthDegraded
	HealthQuarantined
)

// String returns the /stats and /metrics spelling of the state.
func (h HealthState) String() string {
	switch h {
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	default:
		return "active"
	}
}

// healthStates enumerates every state for the one-series-per-state
// /metrics exposition.
var healthStates = [...]HealthState{HealthActive, HealthDegraded, HealthQuarantined}

// Recovery modes for Config.RecoverMode / the -recover flag.
const (
	// RecoverStrict (the default) fails the whole boot when any
	// collection directory cannot be recovered.
	RecoverStrict = "strict"
	// RecoverQuarantine keeps booting: the unrecoverable collection is
	// served as a 503-with-reason placeholder and its directory is left
	// exactly as recovery found it.
	RecoverQuarantine = "quarantine"
)

// ParseRecoverMode validates a -recover flag spelling ("" = strict).
func ParseRecoverMode(s string) (string, error) {
	switch s {
	case "", RecoverStrict:
		return RecoverStrict, nil
	case RecoverQuarantine:
		return RecoverQuarantine, nil
	}
	return "", fmt.Errorf("server: unknown recover mode %q (want strict or quarantine)", s)
}

// Repair probe backoff: first retry almost immediately (most latched
// faults in tests and real life are transient), then double up to a
// polling cadence that won't hammer a genuinely dead disk.
const (
	repairBaseBackoff = 50 * time.Millisecond
	repairMaxBackoff  = 5 * time.Second
)

// healthState returns the current state (lock-free; the reason string
// needs healthInfo).
func (c *Collection) healthState() HealthState {
	return HealthState(c.health.Load())
}

// healthInfo returns the state and its human-readable reason.
func (c *Collection) healthInfo() (HealthState, string) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	return HealthState(c.health.Load()), c.healthReason
}

// setHealth transitions unconditionally (boot-time quarantine and
// tests); degrade/activate are the runtime transitions.
func (c *Collection) setHealth(st HealthState, reason string) {
	c.healthMu.Lock()
	c.health.Store(int32(st))
	c.healthReason = reason
	c.healthMu.Unlock()
}

// degrade moves an active collection to degraded and starts the repair
// probe. Idempotent: a second fault while already degraded keeps the
// first reason (it names the root cause), and a quarantined collection
// never "improves" to degraded.
func (c *Collection) degrade(reason string) {
	if !c.health.CompareAndSwap(int32(HealthActive), int32(HealthDegraded)) {
		return
	}
	c.healthMu.Lock()
	c.healthReason = reason
	c.healthMu.Unlock()
	slog.Warn("server: collection degraded", "collection", c.name, "reason", reason)
	c.startRepairProbe()
}

// activate restores a repaired collection to active.
func (c *Collection) activate() {
	if !c.health.CompareAndSwap(int32(HealthDegraded), int32(HealthActive)) {
		return
	}
	c.healthMu.Lock()
	c.healthReason = ""
	c.healthMu.Unlock()
	slog.Info("server: collection repaired, serving mutations again", "collection", c.name)
}

// checkMutable gates the mutation paths: only an active collection
// accepts writes. The error carries ErrUnavailable so the HTTP layer
// answers 503 (retryable) rather than 4xx.
func (c *Collection) checkMutable() error {
	if st, reason := c.healthInfo(); st != HealthActive {
		return fmt.Errorf("%w: collection %q is %s (%s): mutations are disabled",
			ErrUnavailable, c.name, st, reason)
	}
	return nil
}

// checkReadable gates the read paths: degraded collections keep
// serving their last published snapshots, only quarantine blocks reads
// (there is no snapshot whose integrity recovery could vouch for).
func (c *Collection) checkReadable() error {
	if c.healthState() != HealthQuarantined {
		return nil
	}
	_, reason := c.healthInfo()
	return fmt.Errorf("%w: collection %q is quarantined: %s", ErrUnavailable, c.name, reason)
}

// logHandle returns the attached WAL, if any.
func (c *Collection) logHandle() *persist.Log {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	return c.log
}

// startRepairProbe spawns the single-flight background goroutine that
// retries repair with capped exponential backoff until the collection
// is active again, the collection shuts down, or the log closes
// (Drop). The probe never holds a lock while sleeping, and everything
// it calls either takes ingestMu briefly or serializes on the log's
// own checkpoint mutex — Drop's close() path takes ingestMu and then
// waits on ckptMu only after releasing it, so the two can never
// deadlock.
func (c *Collection) startRepairProbe() {
	if !c.repairing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.repairing.Store(false)
		backoff := repairBaseBackoff
		var lastErr string
		for {
			select {
			case <-c.bg:
				return
			case <-time.After(backoff):
			}
			if c.healthState() != HealthDegraded {
				return
			}
			err := c.repairOnce()
			if err == nil {
				c.repairs.Add(1)
				c.activate()
				return
			}
			if errors.Is(err, persist.ErrClosed) {
				return
			}
			if msg := err.Error(); msg != lastErr {
				slog.Warn("server: repair attempt failed",
					"collection", c.name, "retry_in", backoff.String(), "error", err)
				lastErr = msg
			}
			if backoff *= 2; backoff > repairMaxBackoff {
				backoff = repairMaxBackoff
			}
		}
	}()
}

// repairOnce is one end-to-end repair attempt; nil means the
// collection's durability machinery is provably healthy again:
//
//  1. clear a latched WAL failure (persist.Log.Repair proves the torn
//     tail is gone before rotating to a fresh file);
//  2. checkpoint, so a fault that only broke segment writing (e.g.
//     ENOSPC mid-checkpoint) is re-exercised — success leaves a fresh
//     verified segment on disk;
//  3. drop corrupt segments now superseded by a newer valid one;
//  4. scrub what remains.
func (c *Collection) repairOnce() error {
	lg := c.logHandle()
	if lg == nil {
		return nil
	}
	if lg.Failed() != nil {
		if err := lg.Repair(); err != nil {
			return err
		}
	}
	if err := lg.Checkpoint(c.persistSnapshot); err != nil {
		return err
	}
	if _, err := lg.DropCorruptSegments(); err != nil {
		return err
	}
	if _, err := lg.ScrubSegments(); err != nil {
		return err
	}
	return nil
}

// startScrubber spawns the background integrity scrubber: every
// scrubEvery it re-reads the collection's segment files and verifies
// their whole-file CRCs, degrading the collection on a mismatch.
// Segments are immutable after the rename that publishes them, so this
// is pure detection of on-disk corruption, not a consistency check.
func (c *Collection) startScrubber() {
	if c.scrubEvery <= 0 || c.logHandle() == nil {
		return
	}
	go func() {
		t := time.NewTicker(c.scrubEvery)
		defer t.Stop()
		for {
			select {
			case <-c.bg:
				return
			case <-t.C:
				if err := c.scrubOnce(); errors.Is(err, persist.ErrClosed) {
					return
				}
			}
		}
	}()
}

// scrubOnce runs one scrub pass and records its outcome.
func (c *Collection) scrubOnce() error {
	lg := c.logHandle()
	if lg == nil {
		return nil
	}
	_, err := lg.ScrubSegments()
	if errors.Is(err, persist.ErrClosed) {
		return err
	}
	c.scrubs.Add(1)
	c.lastScrub.Store(time.Now().Unix())
	if err != nil {
		c.scrubErrors.Add(1)
		c.degrade(fmt.Sprintf("scrub: %v", err))
	}
	return err
}

// newQuarantined builds the placeholder served in place of a
// collection whose boot-time recovery failed: it has no shards and no
// log — every read and mutation 503s through the health gates — but it
// occupies the name (so a PUT cannot silently shadow the damaged
// directory) and carries enough to let DELETE remove the directory.
func newQuarantined(name, dir string, fsys errfs.FS, reason string) *Collection {
	c := &Collection{
		name:    name,
		seenIDs: make(map[int]struct{}),
		lat:     newLatencyRing(),
		hist:    newLatencyHist(),
		bg:      make(chan struct{}),
		quarDir: dir,
		fsys:    fsys,
	}
	c.publish(0, 0, nil) // the empty view: /stats and /metrics still render it
	c.setHealth(HealthQuarantined, reason)
	return c
}
