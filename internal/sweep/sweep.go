// Package sweep is the deterministic worker-pool kernel behind every
// parameter scan in this repository.  The paper's evaluation is a grid
// of independent simulations (workflow size x pool size x data-management
// mode x CCR); each point is deterministic, so running them concurrently
// and collecting results by grid index yields output byte-identical to a
// serial loop -- only faster.
//
// Map and Stream are intentionally strict about determinism:
//
//   - results are delivered in item order, never in completion order, so
//     output does not depend on goroutine scheduling;
//   - on failure the error of the lowest-indexed failing item is
//     returned, exactly the error a serial loop would have surfaced
//     first (items below the first known failure still run so that a
//     lower-indexed failure can claim the spot; items above it are
//     skipped rather than simulated and discarded);
//   - cancellation of the caller's context wins over item errors, so an
//     interrupted sweep reports context.Canceled, not a half-run item;
//   - an item function that panics fails its item with a *PanicError
//     instead of exiting the process from a worker goroutine.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn over every item on a pool of workers goroutines and
// returns the results in item order.  workers <= 0 selects
// runtime.GOMAXPROCS(0), "as fast as the hardware allows".  fn receives
// the item's index alongside the item so call sites can label work
// without capturing loop variables.
//
// fn must be safe to call concurrently; anything shared between items
// (such as a cached workflow) must be treated as read-only.
func Map[I, R any](ctx context.Context, workers int, items []I, fn func(ctx context.Context, index int, item I) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	err := Stream(ctx, workers, items, fn, func(i int, r R) error {
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Stream is Map for long grids: each result is handed to emit in item
// order as soon as it and every earlier item have finished, while later
// items are still computing.  An error from emit aborts the sweep and is
// returned.
func Stream[I, R any](ctx context.Context, workers int, items []I, fn func(ctx context.Context, index int, item I) (R, error), emit func(index int, r R) error) error {
	if fn == nil {
		return fmt.Errorf("sweep: nil item function")
	}
	if emit == nil {
		return fmt.Errorf("sweep: nil emit function")
	}
	if len(items) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}

	// ictx stops the workers when the collector bails out early (emit
	// error); the caller's ctx still decides the returned error.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]R, len(items))
	errs := make([]error, len(items))
	done := make([]chan struct{}, len(items))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	// minFailed is the lowest index known to have failed.  Items above it
	// are skipped (their results would be discarded anyway); items below
	// it must still run, because one of them failing would become the
	// error a serial loop surfaces first.  minFailed only decreases, so
	// the lowest recorded failure is always below every skipped index and
	// the returned error is deterministic.
	var minFailed atomic.Int64
	minFailed.Store(int64(len(items)))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			runWorker(ictx, &next, &minFailed, items, results, errs, done, fn)
		}()
	}

	// Collect in item order on the caller's goroutine.
	var sweepErr error
collect:
	for i := range items {
		select {
		case <-ctx.Done():
			break collect
		case <-done[i]:
		}
		if errs[i] != nil {
			sweepErr = errs[i]
			break collect
		}
		if err := emit(i, results[i]); err != nil {
			sweepErr = err
			break collect
		}
	}
	cancel()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	return sweepErr
}

// PanicError is the error of an item whose function panicked.  The
// sweep recovers the panic on the worker goroutine, where it would
// otherwise exit the process, and fails that item with it, so the
// lowest-index rule still decides which error the sweep returns.
type PanicError struct {
	// Index is the item's index in the grid.
	Index int
	// Value is what the function panicked with.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: item %d panicked: %v", e.Index, e.Value)
}

// call runs fn on one item, recovering a panic into the item's error.
func call[I, R any](ctx context.Context, fn func(ctx context.Context, index int, item I) (R, error), i int, item I) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p}
		}
	}()
	return fn(ctx, i, item)
}

// runWorker is the per-item loop each pool goroutine runs: pull the
// next index, simulate it (or skip it if a lower-indexed failure
// already decides the sweep's error), and close the item's done
// channel so the collector can emit in order.  This is the sweep
// kernel -- it runs once per grid point, so its loop body must not
// allocate.
//
//repro:hot
func runWorker[I, R any](ictx context.Context, next, minFailed *atomic.Int64, items []I, results []R, errs []error, done []chan struct{}, fn func(ctx context.Context, index int, item I) (R, error)) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(items) {
			return
		}
		// A canceled sweep stops pulling work; items already in
		// flight on other workers finish on their own.  Unfinished
		// done channels stay open; the collector watches ctx too.
		if ictx.Err() != nil {
			return
		}
		if int64(i) > minFailed.Load() {
			close(done[i])
			continue
		}
		results[i], errs[i] = call(ictx, fn, i, items[i])
		if errs[i] != nil {
			for {
				cur := minFailed.Load()
				if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
		close(done[i])
	}
}
