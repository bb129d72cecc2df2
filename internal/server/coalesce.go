package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// flightGroup coalesces concurrent identical requests, singleflight
// style: callers who ask for the same key while a computation is in
// flight share its result instead of re-simulating, so a thundering
// herd of identical mosaic requests costs one simulation.
//
// The in-flight computation runs under its own context, detached from
// any single caller and canceled only when every waiter has gone away --
// one impatient client hanging up cannot abort work the others still
// want, but when the whole herd disconnects the simulation stops.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	// panics counts the panics recovered in flights; New points it at
	// the server's counter.  A flight runs on a goroutine of its own,
	// where an unrecovered panic would exit the whole process; recovered,
	// it is the flight's error instead.
	panics *atomic.Uint64
}

type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	body    []byte
	err     error
}

// Do returns fn's result for key, executing fn at most once across all
// concurrent callers with the same key.  shared reports whether this
// call joined a flight another caller started.  If ctx is done before
// the flight lands, Do returns ctx's error (and aborts the flight if
// this was its last waiter).
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f, joined := g.flights[key]
	if !joined {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{cancel: cancel, done: make(chan struct{})}
		g.flights[key] = f
		//repro:detached a flight outlives canceled callers by design; every waiter joins via f.done, and the flight itself is the only writer
		go func() {
			body, err := g.run(fctx, fn)
			g.mu.Lock()
			f.body, f.err = body, err
			// A finished flight leaves the map so the next request starts
			// fresh (results live in the response cache, not here).  The
			// guard matters: if every waiter left and a new flight took
			// the key, that flight is not ours to remove.
			if g.flights[key] == f {
				delete(g.flights, key)
			}
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.body, joined, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
			if g.flights[key] == f {
				delete(g.flights, key)
			}
		}
		g.mu.Unlock()
		return nil, joined, ctx.Err()
	}
}

// run calls fn, returning a panic in it as its error.
func (g *flightGroup) run(ctx context.Context, fn func(ctx context.Context) ([]byte, error)) (body []byte, err error) {
	defer recoverPanic(&err, g.panics)
	return fn(ctx)
}

// recoverPanic, deferred by a flight, which runs on a goroutine the
// HTTP stack does not guard, turns a panic in it into its error and
// counts it in panics.  The error answers 500, and since the panic
// unwound past every cache and store write, nothing keeps its result.
// Sweep workers recover their items' panics themselves
// (sweep.PanicError).
func recoverPanic(err *error, panics *atomic.Uint64) {
	if p := recover(); p != nil {
		panics.Add(1)
		*err = fmt.Errorf("server: internal error: %v", p)
	}
}
