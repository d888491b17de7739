package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned when a collection's admission gate sheds a
// query: every execution slot is busy and the wait queue is full. The
// HTTP layer maps it to 429 with a Retry-After hint, so clients back
// off instead of piling more work onto a saturated server.
var ErrOverloaded = errors.New("server: overloaded, retry later")

// gate is a per-collection admission controller: at most `slots`
// queries execute concurrently, at most `maxQueue` more wait for a
// slot, and everything beyond that is shed immediately with
// ErrOverloaded. Shedding at the door keeps a burst from stacking up
// goroutines that each hold request state while blocked on the scan
// pool — under sustained overload the server answers 429 in
// microseconds instead of timing everything out.
//
// A waiter whose context fires while queued gives up with the context
// error, so an admission queue can never outlive the deadlines of the
// requests in it.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	inflight atomic.Int64 // admitted and not yet exited
	shed     atomic.Int64 // cumulative rejections (ErrOverloaded only)
}

// newGate builds a gate admitting maxInflight concurrent queries with
// a wait queue of maxQueue. maxInflight <= 0 disables admission
// control (returns nil — callers treat a nil gate as unlimited);
// maxQueue < 0 means an unbounded queue.
func newGate(maxInflight, maxQueue int) *gate {
	if maxInflight <= 0 {
		return nil
	}
	g := &gate{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
	if maxQueue < 0 {
		g.maxQueue = 1 << 62
	}
	return g
}

// enter tries to admit one query, blocking in the wait queue until a
// slot frees, ctx fires, or the queue is already full (immediate
// ErrOverloaded). On nil error the caller owns a slot and must call
// exit exactly once.
func (g *gate) enter(ctx context.Context) error {
	if g == nil {
		return nil
	}
	// Fast path: free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	default:
	}
	// Queue if there is room. The counter admits small transient
	// overshoot under races; the bound is a shed threshold, not an
	// exact rendezvous, and being off by a waiter or two is fine.
	if g.queued.Load() >= g.maxQueue {
		g.shed.Add(1)
		return ErrOverloaded
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)
	done := doneChan(ctx)
	if done == nil {
		g.slots <- struct{}{}
		g.inflight.Add(1)
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	case <-done:
		return ctx.Err()
	}
}

// exit releases the slot claimed by a successful enter.
func (g *gate) exit() {
	if g == nil {
		return
	}
	g.inflight.Add(-1)
	<-g.slots
}

// snapshot returns the gate's instantaneous and cumulative counters
// for /metrics: currently admitted, currently queued, and total shed.
func (g *gate) snapshot() (inflight, queued, shed int64) {
	if g == nil {
		return 0, 0, 0
	}
	return g.inflight.Load(), g.queued.Load(), g.shed.Load()
}

// doneChan returns ctx's cancellation channel, or nil when ctx is nil
// or can never fire.
func doneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
