package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForEachRunsEveryTask(t *testing.T) {
	p := NewPool(4)
	var hits [100]atomic.Int32
	p.ForEach(len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

// TestPoolSharesBudget pins the worker budget: with several goroutines
// calling ForEach and ForEachCtx (nil ctx) at once, over one task and
// over many, every task runs exactly once, ForEachCtx reports nil, and
// no more than Workers tasks ever run at the same time — on the inline
// path (a one-worker pool, a one-task call) as on the goroutine path.
func TestPoolSharesBudget(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers)
			var running, peak atomic.Int32
			task := func(hits []atomic.Int32) func(int) {
				return func(i int) {
					cur := running.Add(1)
					for {
						old := peak.Load()
						if cur <= old || peak.CompareAndSwap(old, cur) {
							break
						}
					}
					time.Sleep(200 * time.Microsecond)
					running.Add(-1)
					hits[i].Add(1)
				}
			}
			const callers = 6
			var wg sync.WaitGroup
			hits := make([][]atomic.Int32, 2*callers)
			for c := range hits {
				// Even callers take one task (the inline path on any
				// pool), odd callers eight.
				hits[c] = make([]atomic.Int32, 1+(c%2)*7)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if c < callers {
						p.ForEach(len(hits[c]), task(hits[c]))
					} else if err := p.ForEachCtx(nil, len(hits[c]), task(hits[c])); err != nil {
						t.Errorf("ForEachCtx(nil): %v", err)
					}
				}()
			}
			wg.Wait()
			for c := range hits {
				for i := range hits[c] {
					if got := hits[c][i].Load(); got != 1 {
						t.Fatalf("caller %d task %d ran %d times", c, i, got)
					}
				}
			}
			if got := peak.Load(); got > int32(p.Workers()) {
				t.Fatalf("%d tasks ran at once on a %d-worker pool", got, p.Workers())
			}
			if len(p.sem) != 0 {
				t.Fatalf("%d slots still held", len(p.sem))
			}
		})
	}
}
