package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/montage"
)

// hotSLO is the p99 latency limit a ladder rate must meet to count as
// sustained.
const hotSLO = 5 * time.Millisecond

// hotRecord is one open-loop request; times are nanoseconds after the
// schedule's start.
type hotRecord struct {
	claimed, sent, done int64
	cache               string
	ok                  bool
	failure             string
}

// hotZipf: an open loop with Poisson arrivals at a fixed ladder of
// rates sends zipf(s=1) requests over 4,096 scenarios to a daemon with
// its default 1,024-entry LRU, restarted over a store pre-filled with
// every result.  Nothing should simulate: memory and disk hits do all
// the work.
func (b *bench) hotZipf(ctx context.Context, r *outcome) error {
	set, err := hotSet()
	if err != nil {
		return err
	}
	fixture, bodies, err := b.hotFixture(ctx, set)
	if err != nil {
		return err
	}
	r.Digest = digest(bodies)

	reqs := runRequests(set)
	// Warm-up: the 1,024 most popular scenarios once, least popular
	// first, so the LRU ends holding exactly them.
	ranks := hotRanks(b.seed)
	var warmReqs, warmWant [][]byte
	for rank := 1023; rank >= 0; rank-- {
		warmReqs = append(warmReqs, reqs[ranks[rank]])
		warmWant = append(warmWant, bodies[ranks[rank]])
	}
	// Every set-up round restarts a daemon over the run's one fresh copy
	// of the fixture; the daemons only read it.
	dir := filepath.Join(b.work, "store")
	if err := copyTree(fixture, dir); err != nil {
		return err
	}
	s, err := b.startDaemon(r, func(int) (string, error) { return dir, nil }, func(d *daemon) error {
		return warmRuns(d.addr, b.conns, warmReqs, warmWant)
	})
	if err != nil {
		return err
	}
	defer s.close()

	sched := hotSchedule(b.seed, b.seconds)
	if err := s.begin(); err != nil {
		return err
	}
	recs, err := openLoop(ctx, s.d.addr, b.conns, sched, reqs, bodies)
	if err != nil {
		return err
	}
	if err := s.finish(); err != nil {
		return err
	}

	var served []opRecord
	for i, h := range recs {
		r.Attempted++
		switch {
		case h.failure != "":
			r.opFailed("request %d: %s", i, h.failure)
		case !h.ok:
			r.opFailed("request %d: body differs from the in-process result", i)
		default:
			served = append(served, opRecord{rtt: time.Duration(h.done - h.sent), cache: h.cache, status: 200})
		}
	}
	b.hotMetrics(r, sched, recs)
	r.add("cpu_ms_per_op", s.cpuMS()/float64(len(recs)), "ms", len(recs), "daemon user+sys CPU per request over the whole ladder")
	r.add("peak_rss_mb", s.rssMB, "MB", 1, "daemon VmHWM")
	r.ops = len(recs)

	reconcile(r, s, tally(served))
	daemonLayers(r, s)
	if sims := s.delta("reprosrv_simulations_total"); sims != 0 {
		r.problem("hot-zipf: reprosrv_simulations_total rose by %g; every result was in the store", sims)
	}

	if b.tr != nil {
		// Replay every request through decode, resolve and key, and
		// the store read for the ones the daemon served from disk,
		// against a fresh copy of the fixture.
		dir := filepath.Join(b.work, "replay-store")
		if err := copyTree(fixture, dir); err != nil {
			return err
		}
		sp := b.tr.begin(-1, -1, "store.open")
		rst, err := openStore(dir)
		b.tr.end(sp, 0, 0)
		if err != nil {
			return err
		}
		rr := &runReplayer{tr: b.tr, wfc: montage.NewCache(64), st: rst}
		for i, h := range recs {
			if h.failure != "" {
				continue
			}
			item := sched[i].item
			got, err := rr.run(ctx, i, set[item].body, h.cache)
			if err != nil {
				return err
			}
			if got != nil && !bytes.Equal(got, bodies[item]) {
				r.problem("traced replay of request %d returned a different body", i)
			}
		}
	}
	return nil
}

// hotMetrics records the per-rung latencies, the reference-rate
// percentiles, the highest sustained rate and the generator's lag.
func (b *bench) hotMetrics(r *outcome, sched []arrival, recs []hotRecord) {
	type rungStats struct{ lat, queue, rtt []float64 } // ms from due; ms due->sent; ms sent->done
	rungs := make([]rungStats, len(hotLadder))
	var lag []float64
	for i, h := range recs {
		a := sched[i]
		rungs[a.rung].lat = append(rungs[a.rung].lat, float64(h.done-a.due)/1e6)
		rungs[a.rung].queue = append(rungs[a.rung].queue, float64(h.sent-a.due)/1e6)
		rungs[a.rung].rtt = append(rungs[a.rung].rtt, float64(h.done-h.sent)/1e6)
		// The generator's own lateness: send time past the later of the
		// due time and the moment a connection was free to take it.
		lag = append(lag, float64(h.sent-max(a.due, h.claimed))/1e6)
	}
	maxRate := 0.0
	fmt.Fprintf(r.out, "%-8s %8s %10s %10s %12s %9s\n", "rate", "n", "p50_ms", "p99_ms", "backlog_ms", "sustained")
	for i, g := range hotLadder {
		st := rungs[i]
		q := len(st.queue) / 4
		growth := 0.0
		if q > 0 {
			growth = mean(st.queue[len(st.queue)-q:]) - mean(st.queue[:q])
		}
		p99 := quantile(st.lat, 0.99)
		ok := len(st.lat) > 0 && p99 <= float64(hotSLO)/1e6 && growth <= 1
		if ok {
			maxRate = max(maxRate, g.rate)
		}
		fmt.Fprintf(r.out, "%-8g %8d %10.3f %10.3f %12.3f %9t\n", g.rate, len(st.lat), median(st.lat), p99, growth, ok)
		if g.rate == hotReferenceRate {
			n := len(st.lat)
			r.add("p50_ms", median(st.lat), "ms", n, "request latency from due time at the 2,000 req/s reference rate")
			r.add("p99_ms", p99, "ms", n, "request latency from due time at the reference rate")
			// Latency from due time also counts every stall of the shared
			// host as queueing for the requests behind it; the round trip
			// from send is the steadier figure, and the one gated.
			r.add("rtt_p50_ms", median(st.rtt), "ms", n, "median request round trip from send at the reference rate")
			r.samples = n
		}
	}
	r.add("max_rate_rps", maxRate, "1/s", len(hotLadder), "highest ladder rate with p99 <= 5 ms and no growing backlog")
	r.layer("gen.lag_p50_ms", median(lag), "ms")
	r.layer("gen.lag_p99_ms", quantile(lag, 0.99), "ms")
	fmt.Fprintf(r.out, "generator lag: p50 %.4f ms, p99 %.4f ms over %d requests\n", median(lag), quantile(lag, 0.99), len(lag))
}

// openLoop sends the schedule on conns connections.  Each sender takes
// the next arrival, sleeps until it is due, sends it and reads the
// reply.  An arrival due while every connection is busy waits for the
// first free one; its latency still counts from its due time.
func openLoop(ctx context.Context, addr string, conns int, sched []arrival, reqs, want [][]byte) ([]hotRecord, error) {
	recs := make([]hotRecord, len(sched))
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		cs[i] = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	base := monotonicNow() + int64(10*time.Millisecond)
	since := func() int64 { return int64(time.Since(epoch)) - int64(10*time.Millisecond) }
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				h := &recs[i]
				h.claimed = since()
				if a.due > h.claimed {
					sleepUntil(base + a.due)
				}
				h.sent = since()
				resp, err := c.do(reqs[a.item], opTimeout)
				h.done = since()
				h.cache = resp.cache
				o := opRecord{status: resp.status, err: err, body: resp.body}
				h.failure = o.failure()
				h.ok = h.failure == "" && bytes.Equal(resp.body, want[a.item])
			}
		}(c)
	}
	wg.Wait()
	return recs, ctx.Err()
}

// hotFixture returns a store directory holding every hot-set result and
// the results themselves.  The commit under test computes them
// in-process and persists them through internal/store once per source
// tree: the store is kept under .bench_build/fixtures/ named by the
// tree's hash, and later runs read the results back from it (a run's
// daemons each get a fresh copy).
func (b *bench) hotFixture(ctx context.Context, set []scenario) (string, [][]byte, error) {
	dir := filepath.Join(b.root, ".bench_build", "fixtures", "hot-"+treeHash(b.root))
	if _, err := os.Stat(dir); err == nil {
		st, err := openStore(dir)
		if err != nil {
			return "", nil, err
		}
		bodies := make([][]byte, len(set))
		complete := true
		for i, s := range set {
			if bodies[i], complete = st.Get(s.key); !complete {
				break
			}
		}
		if complete {
			return dir, bodies, nil
		}
	}
	// Fixtures of other trees, or left half-built, are stale: only this
	// tree's is kept.
	stale, err := filepath.Glob(filepath.Join(filepath.Dir(dir), "hot-*"))
	if err != nil {
		return "", nil, err
	}
	for _, d := range stale {
		if err := os.RemoveAll(d); err != nil {
			return "", nil, err
		}
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	start := time.Now()
	bodies, err := buildFixture(ctx, tmp, set)
	if err != nil {
		os.RemoveAll(tmp)
		return "", nil, err
	}
	fmt.Fprintf(os.Stdout, "fixture: %d results computed and stored in %.1fs\n", len(set), time.Since(start).Seconds())
	return dir, bodies, os.Rename(tmp, dir)
}

// buildFixture computes every scenario's result in-process, persists
// each through internal/store into a new store at dir, and returns them.
func buildFixture(ctx context.Context, dir string, set []scenario) ([][]byte, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	return (&runReplayer{wfc: montage.NewCache(64), st: st}).computeBodies(ctx, 0, set)
}

// monotonicNow reads CLOCK_MONOTONIC, the clock sleepUntil sleeps on.
func monotonicNow() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 1, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // CLOCK_MONOTONIC cannot fail
	return ts.Nano()
}

// sleepUntil blocks until CLOCK_MONOTONIC reaches t, on an absolute
// timer with the thread's timer slack cut to 1 ns: time.Sleep wakes
// about half a millisecond late, longer than a cache hit takes.  The
// goroutine holds its thread only while it sleeps, so the reply that
// follows wakes whichever thread polls the network.
func sleepUntil(t int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	ts := syscall.NsecToTimespec(t)
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_CLOCK_NANOSLEEP, 1 /* CLOCK_MONOTONIC */, 1 /* TIMER_ABSTIME */, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
		if errno != syscall.EINTR {
			return
		}
	}
}

// setTimerSlack sets the calling thread's timer slack in nanoseconds.
func setTimerSlack(ns uintptr) {
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, ns, 0) //nolint:errcheck // best effort: the default slack only costs precision
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
