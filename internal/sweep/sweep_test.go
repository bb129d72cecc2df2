package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderStable(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), 8, items, func(_ context.Context, idx, item int) (int, error) {
		if idx != item {
			t.Errorf("index %d delivered item %d", idx, item)
		}
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, _ int, item int) (int, error) {
		return item, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
	if _, err := Map[int, int](context.Background(), 4, []int{1}, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Items 2 and 6 both fail; whatever the scheduling, the error of
	// item 2 must surface, matching a serial loop.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 4, items, func(_ context.Context, _ int, item int) (int, error) {
			if item == 2 || item == 6 {
				return 0, fmt.Errorf("item %d failed", item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "item 2 failed" {
			t.Fatalf("trial %d: got error %v, want item 2's", trial, err)
		}
	}
}

func TestMapRunsEveryItemOnce(t *testing.T) {
	var calls atomic.Int64
	items := make([]int, 37)
	_, err := Map(context.Background(), 5, items, func(_ context.Context, _ int, _ int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 37 {
		t.Fatalf("fn called %d times, want 37", got)
	}
}

func TestMapSkipsItemsAboveFailure(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(context.Background(), 1, []int{0, 1, 2, 3, 4, 5, 6, 7},
		func(_ context.Context, _ int, item int) (int, error) {
			calls.Add(1)
			if item == 2 {
				return 0, errors.New("item 2 failed")
			}
			return item, nil
		})
	if err == nil || err.Error() != "item 2 failed" {
		t.Fatalf("got error %v, want item 2's", err)
	}
	// With one worker, items 0-2 run and 3-7 are skipped as doomed.
	if got := calls.Load(); got != 3 {
		t.Errorf("fn called %d times, want 3", got)
	}
}

func TestStreamEmitsInOrderWhileLaterItemsRun(t *testing.T) {
	// Item 1 blocks until item 0 has been emitted: this only completes
	// if emit streams results before the whole grid finishes.
	gate := make(chan struct{})
	var emitted []int
	err := Stream(context.Background(), 2, []int{0, 1},
		func(_ context.Context, _ int, item int) (int, error) {
			if item == 1 {
				<-gate
			}
			return item, nil
		},
		func(i, r int) (err error) {
			if i != r {
				t.Errorf("emit(%d, %d): index and item out of sync", i, r)
			}
			emitted = append(emitted, i)
			if i == 0 {
				close(gate)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 || emitted[0] != 0 || emitted[1] != 1 {
		t.Errorf("emitted %v, want [0 1]", emitted)
	}
}

func TestStreamEmitErrorAborts(t *testing.T) {
	// Workers are not throttled by emission, so fn may drain the whole
	// grid; what must hold is that the emit error surfaces and nothing
	// past the failing index is emitted.
	var emitted []int
	err := Stream(context.Background(), 1, []int{0, 1, 2, 3},
		func(_ context.Context, _ int, item int) (int, error) {
			return item, nil
		},
		func(i, _ int) error {
			emitted = append(emitted, i)
			if i == 1 {
				return errors.New("emit failed")
			}
			return nil
		})
	if err == nil || err.Error() != "emit failed" {
		t.Fatalf("got %v, want emit failure", err)
	}
	if len(emitted) != 2 || emitted[0] != 0 || emitted[1] != 1 {
		t.Errorf("emitted %v, want [0 1]", emitted)
	}
}

func TestMapCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := Map(ctx, 4, []int{1, 2, 3}, func(_ context.Context, _ int, item int) (int, error) {
		calls.Add(1)
		return item, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("canceled sweep still ran %d items", calls.Load())
	}
}

func TestMapCancellationBeatsItemError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Map(ctx, 1, []int{0, 1, 2}, func(_ context.Context, _ int, item int) (int, error) {
		if item == 0 {
			cancel() // later items are skipped...
			return 0, errors.New("boom")
		}
		return item, nil
	})
	// ...and the caller sees the cancellation, not the item error.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestPanickingItemFailsTheSweep: a panic in an item function fails
// that item with a *PanicError carrying the panic value, from Map and
// from Stream, instead of exiting the process, and every worker
// goroutine is gone once the sweep returns.
func TestPanickingItemFailsTheSweep(t *testing.T) {
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	fn := func(_ context.Context, _ int, item int) (int, error) {
		if item == 5 {
			panic("boom at 5")
		}
		return item, nil
	}
	before := runtime.NumGoroutine()
	_, mapErr := Map(context.Background(), 4, items, fn)
	streamErr := Stream(context.Background(), 4, items, fn, func(int, int) error { return nil })
	for name, err := range map[string]error{"Map": mapErr, "Stream": streamErr} {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 5 || pe.Value != "boom at 5" {
			t.Errorf("%s: err = %v, want item 5's *PanicError", name, err)
		}
	}
	// The workers have returned (Stream waits for them), but the
	// runtime may take a moment to retire their goroutines.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the sweeps, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicAtLowerIndexWins: a panic is an item error like any other,
// so a panic at a lower index wins over a later item's failure, and a
// failure at a lower index wins over a later panic.
func TestPanicAtLowerIndexWins(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 4, items, func(_ context.Context, _ int, item int) (int, error) {
			switch item {
			case 2:
				panic("item 2 panicked")
			case 6:
				return 0, errors.New("item 6 failed")
			}
			return item, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 2 {
			t.Fatalf("trial %d: got error %v, want item 2's panic", trial, err)
		}
		_, err = Map(context.Background(), 4, items, func(_ context.Context, _ int, item int) (int, error) {
			switch item {
			case 2:
				return 0, errors.New("item 2 failed")
			case 6:
				panic("item 6 panicked")
			}
			return item, nil
		})
		if err == nil || err.Error() != "item 2 failed" {
			t.Fatalf("trial %d: got error %v, want item 2's failure", trial, err)
		}
	}
}
