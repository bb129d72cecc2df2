package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/montage"
)

// setupRounds is how many times a run launches and warms a daemon; the
// reported set-up time is their median and the last one is measured.
const setupRounds = 9

// opTimeout bounds one request; batch-eval's sweep is the longest.
const opTimeout = 60 * time.Second

// coldConns is how many connections cold-mix measures on; its warm-up
// uses nproc.  Each run simulates on one core, so two in flight on a
// two-core host, with the collector and the client beside them,
// saturate it: the round trip then measures how much CPU the host
// happens to grant, not the program.
const coldConns = 1

// digestOps is how many cold-mix sequence bodies the committed digest
// covers, whatever the run length.
const digestOps = 256

// opRecord is one measured request.
type opRecord struct {
	rtt    time.Duration // send to last byte
	cache  string
	status int
	err    error
	body   []byte
}

// failure names why an op failed, or "" when it succeeded.
func (o opRecord) failure() string {
	switch {
	case o.err != nil:
		return "transport error: " + o.err.Error()
	case o.status != 200:
		return fmt.Sprintf("status %d: %.200s", o.status, o.body)
	}
	return ""
}

// session is the measured phase's daemon-side bookkeeping: /metrics
// and CPU before and after, and the peak RSS.
type session struct {
	d          *daemon
	before     promSample
	after      promSample
	cpu0, cpu1 time.Duration
	rssMB      float64
}

func (s *session) begin() error {
	var err error
	if s.before, err = scrape(s.d.addr); err != nil {
		return err
	}
	s.cpu0, err = s.d.cpu()
	return err
}

func (s *session) finish() error {
	var err error
	if s.cpu1, err = s.d.cpu(); err != nil {
		return err
	}
	if s.rssMB, err = s.d.peakRSS(); err != nil {
		return err
	}
	s.after, err = scrape(s.d.addr)
	return err
}

func (s *session) delta(name string) float64 { return delta(s.before, s.after, name) }

func (s *session) cpuMS() float64 { return float64(s.cpu1-s.cpu0) / 1e6 }

// startDaemon launches and warms the daemon setupRounds times (prepare
// readies a fresh store directory each round, warm drives the fixed
// warm-up) and keeps the last one running.
func (b *bench) startDaemon(r *outcome, prepare func(round int) (string, error), warm func(*daemon) error) (*session, error) {
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		dir, err := prepare(round)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := launch(b.daemonBin, dir)
		if err != nil {
			return nil, err
		}
		if err := warm(d); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if round < setupRounds-1 {
			d.stop()
			continue
		}
		r.add("setup_s", median(setups), "s", len(setups), "daemon launch to measured phase: process start, store scan, warm-up (median of rounds)")
		return &session{d: d}, nil
	}
	panic("unreachable")
}

func (s *session) close() { s.d.stop() }

// closedLoop sends requests 0, 1, 2, ... (req renders request i; false
// means there is none) on conns connections, each sending its next
// request when the previous one completes, until the deadline; every
// claimed request completes.  It returns the records in request order.
func closedLoop(ctx context.Context, addr string, conns int, req func(i int) ([]byte, bool, error), deadline time.Time) ([]opRecord, error) {
	var mu sync.Mutex
	var recs []opRecord
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.close()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				raw, ok, err := req(i)
				if err != nil {
					errs[w] = err
				}
				if !ok || err != nil {
					return
				}
				start := time.Now()
				resp, err := c.do(raw, opTimeout)
				o := opRecord{rtt: time.Since(start), cache: resp.cache, status: resp.status, err: err, body: resp.body}
				mu.Lock()
				for len(recs) <= i {
					recs = append(recs, opRecord{})
				}
				recs[i] = o
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, ctx.Err()
}

// warmRuns sends each run once on conns connections and checks every
// body against want.
func warmRuns(addr string, conns int, reqs [][]byte, want [][]byte) error {
	recs, err := closedLoop(context.Background(), addr, conns, func(i int) ([]byte, bool, error) {
		if i >= len(reqs) {
			return nil, false, nil
		}
		return reqs[i], true, nil
	}, time.Now().Add(time.Hour))
	if err != nil {
		return err
	}
	for i, o := range recs {
		if f := o.failure(); f != "" {
			return fmt.Errorf("warm-up request %d: %s", i, f)
		}
		if want != nil && !bytes.Equal(o.body, want[i]) {
			return fmt.Errorf("warm-up request %d: body differs from the in-process result", i)
		}
	}
	return nil
}

func runRequests(ss []scenario) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = request("POST", "/v2/run", s.body)
	}
	return out
}

func digest(bodies ...[][]byte) string {
	h := sha256.New()
	for _, group := range bodies {
		for _, b := range group {
			fmt.Fprintf(h, "%d\n", len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tierTally counts X-Cache values and round trips per value.
type tierTally struct {
	count map[string]int
	rtt   map[string][]float64 // seconds
}

func tally(recs []opRecord) tierTally {
	t := tierTally{count: map[string]int{}, rtt: map[string][]float64{}}
	for _, o := range recs {
		if o.failure() != "" {
			continue
		}
		t.count[o.cache]++
		t.rtt[o.cache] = append(t.rtt[o.cache], o.rtt.Seconds())
	}
	return t
}

// reconcile checks the X-Cache tally against the daemon's counters over
// the measured phase and records the server-layer counts.  A request
// that joins another's in-flight lookup reports "miss" even when that
// lookup was answered from the store (the server sets the tier only in
// the leader's closure); such requests are counted as mislabeled, never
// as failures.  Both run workloads keep this exact: cold-mix keys never
// coalesce and hot-zipf never simulates.
func reconcile(r *outcome, s *session, t tierTally) {
	hits, stores, misses := float64(t.count["hit"]), float64(t.count["store"]), float64(t.count["miss"])
	sims := s.delta("reprosrv_simulations_total")
	coalesced := s.delta("reprosrv_coalesced_requests_total")
	check := func(what string, got, want float64) {
		if got != want {
			r.problem("tier reconciliation: %s is %g, X-Cache tally says %g", what, got, want)
		}
	}
	check("reprosrv_result_cache_hits_total delta", s.delta("reprosrv_result_cache_hits_total"), hits)
	check("reprosrv_result_cache_misses_total delta", s.delta("reprosrv_result_cache_misses_total"), stores+misses)
	check("reprosrv_store_hits_total delta", s.delta("reprosrv_store_hits_total"), stores)
	check("simulations + coalesced joiners", sims+coalesced, misses)
	for tier := range t.count {
		if tier != "hit" && tier != "store" && tier != "miss" {
			r.problem("tier reconciliation: unexpected X-Cache %q on %d responses", tier, t.count[tier])
		}
	}
	mislabeled := misses - sims
	r.layer("server.simulations", sims, "count")
	r.layer("server.coalesced", coalesced, "count")
	r.layer("server.rejected", s.delta("reprosrv_rejected_total"), "count")
	r.layer("server.errors", s.delta("reprosrv_errors_total"), "count")
	r.layer("server.xcache_mislabeled", mislabeled, "count")
	r.layer("server.lru.hit_ratio", ratio(hits, hits+stores+misses), "ratio")
	sh, sm := s.delta("reprosrv_store_hits_total"), s.delta("reprosrv_store_misses_total")
	r.layer("store.hit_ratio", ratio(sh, sh+sm), "ratio")
	r.layer("store.corrupt", s.delta("reprosrv_store_corrupt_total"), "count")
	r.layer("store.writes", s.delta("reprosrv_store_writes_total"), "count")
	r.layer("store.entries", s.after["reprosrv_store_entries"], "count")
	r.layer("server.rtt.hit_us", median(t.rtt["hit"])*1e6, "us")
	r.layer("server.rtt.store_us", median(t.rtt["store"])*1e6, "us")
	r.layer("server.rtt.miss_ms", median(t.rtt["miss"])*1e3, "ms")
	fmt.Fprintf(r.out, "tiers: X-Cache %v; simulations +%g, coalesced +%g, mislabeled %g\n", t.count, sims, coalesced, mislabeled)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// daemonLayers records the per-layer figures every workload takes from
// the daemon's own counters.
func daemonLayers(r *outcome, s *session) {
	n := s.delta(`reprosrv_request_duration_seconds_count{endpoint="run_v2"}`)
	sum := s.delta(`reprosrv_request_duration_seconds_sum{endpoint="run_v2"}`)
	r.layer("server.handler.run_v2_us", ratio(sum, n)*1e6, "us")
	wh, wm := s.delta("reprosrv_workflow_cache_hits_total"), s.delta("reprosrv_workflow_cache_misses_total")
	r.layer("montage.wfcache.hit_ratio", ratio(wh, wh+wm), "ratio")
}

// ---- cold-mix ----

// coldMix: a closed loop on one connection sends the seeded sequence
// of distinct /v2/run scenarios to a daemon over an empty store, so
// every request generates, simulates, encodes and persists.
func (b *bench) coldMix(ctx context.Context, r *outcome) error {
	warm, err := coldWarmup()
	if err != nil {
		return err
	}
	seq := newColdSequence(b.seed, warm)
	if _, err := seq.prefix(digestOps); err != nil {
		return err
	}
	// The warm-up bodies are checked as they arrive; computing them
	// first also warms this process's workflow cache the way the
	// daemon's warms.
	wfc := montage.NewCache(64)
	replayer := &runReplayer{wfc: wfc}
	warmBodies, err := replayer.computeBodies(ctx, 0, warm)
	if err != nil {
		return err
	}
	s, err := b.startDaemon(r, func(round int) (string, error) {
		return b.freshDir(fmt.Sprintf("store-%d", round))
	}, func(d *daemon) error {
		return warmRuns(d.addr, b.conns, runRequests(warm), warmBodies)
	})
	if err != nil {
		return err
	}
	defer s.close()

	if err := s.begin(); err != nil {
		return err
	}
	start := time.Now()
	recs, err := closedLoop(ctx, s.d.addr, coldConns, func(i int) ([]byte, bool, error) {
		ss, err := seq.prefix(i + 1)
		if err != nil {
			return nil, false, err
		}
		return request("POST", "/v2/run", ss[i].body), true, nil
	}, start.Add(b.duration()))
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if err := s.finish(); err != nil {
		return err
	}

	// Expected bodies: the replay of the same inputs.  Traced, it also
	// writes into a fresh store, warm-up first, as the daemon did.
	n := len(recs)
	ops, err := seq.prefix(max(n, digestOps))
	if err != nil {
		return err
	}
	if b.tr != nil {
		dir, err := b.freshDir("replay-store")
		if err != nil {
			return err
		}
		sp := b.tr.begin(-1, -1, "store.open")
		replayer.st, err = openStore(dir)
		b.tr.end(sp, 0, 0)
		if err != nil {
			return err
		}
		// The warm-up is replayed untraced: it only brings the replay's
		// workflow cache and store to the daemon's state.
		replayer.wfc = montage.NewCache(64)
		if _, err := replayer.computeBodies(ctx, 0, warm); err != nil {
			return err
		}
		replayer.tr = b.tr
	}
	want, err := replayer.computeBodies(ctx, len(warm), ops)
	if err != nil {
		return err
	}
	for i, o := range recs {
		r.Attempted++
		if f := o.failure(); f != "" {
			r.opFailed("run %d: %s", i, f)
		} else if !bytes.Equal(o.body, want[i]) {
			r.opFailed("run %d: body differs from the in-process result", i)
		}
	}
	r.Digest = digest(warmBodies, want[:digestOps])

	lat := make([]float64, 0, n)
	for _, o := range recs {
		lat = append(lat, o.rtt.Seconds()*1e3)
	}
	r.add("throughput_rps", float64(n)/elapsed.Seconds(), "1/s", n, fmt.Sprintf("completed runs per second, closed loop on %d connection(s)", coldConns))
	r.add("p50_ms", median(lat), "ms", n, "run latency from send")
	r.add("rtt_p50_ms", median(lat), "ms", n, "median op round trip from send (closed loop: the same as p50_ms)")
	tv, tn := tail(lat)
	r.add("p99_ms", quantile(lat, 0.99), "ms", n, fmt.Sprintf("run latency from send; %s = %.3f ms is the highest percentile with >=10 runs beyond it", tn, tv))
	r.add("cpu_ms_per_op", s.cpuMS()/float64(n), "ms", n, "daemon user+sys CPU per completed run")
	r.add("peak_rss_mb", s.rssMB, "MB", 1, "daemon VmHWM")
	r.ops, r.samples = n, n

	t := tally(recs)
	reconcile(r, s, t)
	daemonLayers(r, s)
	if sims := s.delta("reprosrv_simulations_total"); sims != float64(n) {
		r.problem("cold-mix: reprosrv_simulations_total rose by %g over %d distinct runs", sims, n)
	}
	return nil
}

// ---- batch-eval ----

// batchEval: a closed loop on one connection runs whole passes -- every
// registered experiment, then one any-axis sweep -- against a daemon
// without a store.
func (b *bench) batchEval(ctx context.Context, r *outcome) error {
	pass, err := newBatchPass(b.seed)
	if err != nil {
		return err
	}
	wfc := montage.NewCache(64)
	want, _, err := replayPass(ctx, nil, 0, pass, wfc)
	if err != nil {
		return err
	}
	s, err := b.startDaemon(r, func(int) (string, error) { return "", nil }, func(d *daemon) error {
		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		defer c.close()
		if problems := runPass(c, pass, want); len(problems) > 0 {
			return fmt.Errorf("%s", problems[0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer s.close()
	c, err := dial(s.d.addr)
	if err != nil {
		return err
	}
	defer c.close()

	if err := s.begin(); err != nil {
		return err
	}
	var passes []float64
	start := time.Now()
	deadline := start.Add(b.duration())
	for ctx.Err() == nil && time.Now().Before(deadline) {
		t0 := time.Now()
		problems := runPass(c, pass, want)
		passes = append(passes, time.Since(t0).Seconds())
		r.Attempted++
		if len(problems) > 0 {
			r.opFailed("pass %d: %s", len(passes)-1, problems[0])
		}
	}
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.finish(); err != nil {
		return err
	}
	n := len(passes)
	r.Digest = digestPass(want)
	ms := make([]float64, n)
	for i, p := range passes {
		ms[i] = p * 1e3
	}
	tv, tn := tail(passes)
	r.add("throughput_rps", float64(n)/elapsed.Seconds(), "1/s", n, "completed passes per second, closed loop on 1 connection")
	r.add("rtt_p50_ms", median(ms), "ms", n, "median op round trip from send: a whole pass (pass_s in ms)")
	r.add("pass_s", median(passes), "s", n, "median seconds per pass")
	r.add("pass_tail_s", tv, "s", n, tn+" of pass seconds: the highest percentile with >=10 passes beyond it (max when none has)")
	r.add("cpu_ms_per_op", s.cpuMS()/float64(n), "ms", n, "daemon user+sys CPU per pass")
	r.add("peak_rss_mb", s.rssMB, "MB", 1, "daemon VmHWM")
	r.ops, r.samples = n, n
	daemonLayers(r, s)
	reconcile(r, s, tierTally{})

	if b.tr != nil {
		var timings []sweepTiming
		for i := 0; i < n; i++ {
			got, timing, err := replayPass(ctx, b.tr, i, pass, wfc)
			if err != nil {
				return err
			}
			if digestPass(got) != r.Digest {
				r.problem("traced replay pass %d differs from the untraced one", i)
			}
			timings = append(timings, timing)
		}
		b.sweepLayers(r, timings)
	}
	return nil
}

// runPass sends one pass and returns the reasons it failed, if any.
func runPass(c *conn, pass batchPass, want passResult) []string {
	var problems []string
	for i, e := range pass.experiments {
		resp, err := c.do(request("GET", e.path, nil), opTimeout)
		o := opRecord{status: resp.status, err: err, body: resp.body}
		if f := o.failure(); f != "" {
			problems = append(problems, e.path+": "+f)
		} else if err := checkExperiment(e.name, resp.body, want.tables[i]); err != nil {
			problems = append(problems, err.Error())
		}
	}
	resp, err := c.do(request("POST", "/v2/sweep", pass.sweep), opTimeout)
	o := opRecord{status: resp.status, err: err, body: resp.body}
	switch f := o.failure(); {
	case f != "":
		problems = append(problems, "/v2/sweep: "+f)
	case !bytes.HasSuffix(resp.body, []byte("\n")) || !bytes.Contains(lastLine(resp.body), []byte(`{"done":`)):
		problems = append(problems, "/v2/sweep: stream ended without its terminal done envelope")
	case !bytes.Equal(resp.body, want.sweep):
		problems = append(problems, "/v2/sweep: stream differs from the in-process sweep.Stream rows")
	}
	return problems
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func digestPass(p passResult) string {
	var parts [][]byte
	for _, tables := range p.tables {
		for _, t := range tables {
			parts = append(parts, []byte(fmt.Sprintf("%q %q %q", t.Title, t.Columns, t.Rows)))
		}
	}
	return digest(parts, [][]byte{p.sweep})
}

// freshDir returns an empty directory under the run's work area.
func (b *bench) freshDir(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// sweepLayers derives the sweep layer's figures from the traced passes.
func (b *bench) sweepLayers(r *outcome, timings []sweepTiming) {
	var first []float64
	for _, t := range timings {
		first = append(first, t.firstRow.Seconds()*1e3)
	}
	r.layer("sweep.first_row_ms", mean(first), "ms")
	aggs, _ := aggregate(b.tr.spans)
	stream, point := aggs["sweep.stream"], aggs["sweep.point"]
	if stream == nil || point == nil {
		return
	}
	r.layer("sweep.points_per_s", ratio(stream.size, stream.total.Seconds()), "1/s")
	r.layer("sweep.busy_ratio", ratio(point.total.Seconds(), stream.total.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
}
