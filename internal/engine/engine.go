// Package engine is the parallel deterministic simulation runner behind
// the experiment pipelines and the fleet simulator. Fleet generation,
// every figure of the paper's evaluation, and every fleet cell decompose
// into independent items (one cluster, one model fold, one sweep cell,
// one pool group); the engine fans those items out across a
// work-stealing worker pool and returns results in item order, so the
// output of a run is byte-identical regardless of worker count or OS
// scheduling.
//
// Determinism contract: the work for one item must depend only on the
// item and its index, never on which worker runs it or when, and must
// not share mutable state with other items. Callers that need
// randomness seed each item themselves from its index
// (stats.NewRand(stats.ShardSeed(root, i))), so an item's stream is
// fixed by its position in the input slice. Results are merged by the
// caller in that same input order.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map fans fn out over items across a pool of `workers` goroutines
// (<= 0 means GOMAXPROCS) and returns the per-item results in input
// order: one item per cluster (or fold, sweep cell, fleet cell). Errors
// from individual items are joined in item order; a failed item keeps
// whatever result fn returned alongside its error. Map stops launching
// new items once ctx is cancelled and reports ctx.Err() joined with any
// item errors collected so far.
func Map[T, R any](ctx context.Context, items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	if workers <= 1 {
		// Serial fast path: same merge order, no goroutines, and no
		// error bookkeeping unless an item fails.
		var errs []error
		for i := range items {
			if err := ctx.Err(); err != nil {
				return out, errors.Join(append(errs, err)...)
			}
			var err error
			if out[i], err = fn(i, items[i]); err != nil {
				errs = append(errs, err)
			}
		}
		return out, errors.Join(errs...)
	}

	// Work-stealing pool: items are sharded round-robin across per-worker
	// deques. A worker drains its own deque from the back (LIFO: cache-warm
	// continuation of its shard) and steals from other deques at the front
	// (FIFO: the victim keeps its most recently pushed work). The item set
	// is static, so a pass over every deque finding nothing means the
	// worker is done.
	errs := make([]error, n)
	deques := make([]deque, workers)
	for i := range items {
		w := i % workers
		deques[w].jobs = append(deques[w].jobs, i)
	}
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				idx, ok := deques[self].popBack()
				if !ok {
					// Own deque empty: scan the others for work.
					for off := 1; off < workers && !ok; off++ {
						idx, ok = deques[(self+off)%workers].popFront()
					}
					if !ok {
						return
					}
				}
				out[idx], errs[idx] = fn(idx, items[idx])
			}
		}(w)
	}
	wg.Wait()
	joined := errors.Join(errs...)
	if cancelled.Load() {
		return out, errors.Join(ctx.Err(), joined)
	}
	return out, joined
}

// deque is a mutex-guarded double-ended work queue of item indexes.
type deque struct {
	mu   sync.Mutex
	jobs []int
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	idx := d.jobs[len(d.jobs)-1]
	d.jobs = d.jobs[:len(d.jobs)-1]
	return idx, true
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	idx := d.jobs[0]
	d.jobs = d.jobs[1:]
	return idx, true
}
