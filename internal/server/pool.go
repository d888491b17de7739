package server

import (
	"context"
	"runtime"
	"sync"
)

// Pool is the server's bounded parallel-for over task indices. Inside
// one request it runs the (tile, shard group) tasks of a search or a join
// (runTiles), an lsh join's a task per tile; nothing splits one task
// further. The bound is a server-wide semaphore, so any number of
// concurrent requests share the same worker budget instead of multiplying
// it.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool with the given parallelism; n <= 0 defaults
// to GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Workers returns the pool parallelism.
func (p *Pool) Workers() int { return cap(p.sem) }

// ForEach is ForEachCtx without cancellation; it makes the pool a
// join.Runner.
func (p *Pool) ForEach(n int, fn func(i int)) { p.ForEachCtx(nil, n, fn) }

// ForEachCtx invokes fn(i) for every i in [0, n) and blocks until every
// started call returns. At most Workers tasks run at once across every
// concurrent call on the pool; the feeding goroutine blocks while the
// pool is saturated, which back-pressures oversized requests. Tasks must
// not themselves call into the same pool: slots are held for a task's
// full duration, so nesting can deadlock.
//
// The feed stops submitting tasks once ctx is cancelled, so a request
// queued behind a saturated pool stops waiting for a slot the moment its
// deadline fires, releasing nothing it never held. Tasks already started
// always run to completion — fn itself is expected to observe ctx — and
// every claimed slot is released before return. Returns ctx.Err() when
// any task was skipped, nil when all n ran. A nil ctx never cancels.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Nil for a context that never cancels; receiving from it never fires.
	done := ctx.Done()
	inline := n == 1 || cap(p.sem) == 1
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		// The explicit Err check makes an already-expired context
		// deterministic (select picks randomly among ready cases, so
		// without it one task could still sneak through).
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-done:
			return ctx.Err()
		case p.sem <- struct{}{}:
		}
		if inline {
			// No goroutine, but the slot is held for the task's whole
			// run: an inline task is as much a worker as a spawned one,
			// and concurrent requests must see it against the budget.
			fn(i)
			<-p.sem
			continue
		}
		wg.Add(1)
		go func() {
			defer func() {
				<-p.sem
				wg.Done()
			}()
			fn(i)
		}()
	}
	return nil
}
