package exec

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/units"
)

// countFired returns the queued events the run of wf under cfg fires.
func countFired(t *testing.T, wf *dag.Workflow, cfg Config) int {
	t.Helper()
	fired := -1
	firedHook = func(n int) { fired = n }
	defer func() { firedHook = nil }()
	if _, err := Run(wf, cfg); err != nil {
		t.Fatal(err)
	}
	return fired
}

// TestEventsFired pins how many queued events the presets fire.  No
// stage-in arrival is queued, and a remote-I/O task with inputs is
// readied by its last fetch, so a regular run fires one event per task
// plus three (start, execution start, finish) and a remote-I/O run one
// per task input plus two per task (completion, cleanup) plus one
// (start).  Before either fold the figures were 252 and 3,693 regular,
// 1,270 and 19,187 remote I/O.
func TestEventsFired(t *testing.T) {
	for _, c := range []struct {
		spec montage.Spec
		mode datamgmt.Mode
		want int
	}{
		{montage.OneDegree(), datamgmt.Regular, 206},
		{montage.OneDegree(), datamgmt.RemoteIO, 1067},
		{montage.FourDegree(), datamgmt.Regular, 3030},
		{montage.FourDegree(), datamgmt.RemoteIO, 16160},
	} {
		wf, err := montage.Cached(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := countFired(t, wf, Config{Mode: c.mode}); got != c.want {
			t.Errorf("%s %v: %d events fired, want %d", c.spec.Name, c.mode, got, c.want)
		}
	}
}

// TestTaskWithoutInputsIsStaged checks that a remote-I/O task with no
// inputs, which no fetch can ready, is readied by an event of its own:
// gen (10 s, no inputs) writes mid (50 B), which use (20 s) turns into
// out (200 B), at 10 B/s.
func TestTaskWithoutInputsIsStaged(t *testing.T) {
	wf := dag.New("sourced")
	for _, f := range []struct {
		name   string
		size   units.Bytes
		output bool
	}{{"mid", 50, false}, {"out", 200, true}} {
		if _, err := wf.AddFile(f.name, f.size, f.output); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wf.AddTask("gen", "g", 10, nil, []string{"mid"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.AddTask("use", "u", 20, []string{"mid"}, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	if err := wf.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: datamgmt.RemoteIO, Processors: 1, Bandwidth: tinyBW}
	// start; gen: staged, complete, cleanup; use: fetched, complete, cleanup.
	if got := countFired(t, wf, cfg); got != 7 {
		t.Errorf("%d events fired, want 7", got)
	}
	m, err := Run(wf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// gen runs [0,10) and stages mid out by 15; use fetches it by 20,
	// runs [20,40) and stages out by 60.
	if m.Makespan != 60 || m.TasksRun != 2 {
		t.Errorf("makespan %v with %d tasks run, want 60 with 2", m.Makespan, m.TasksRun)
	}
}

// maxRunAllocs bounds what a warmed run allocates: its arrays come from
// a recycled runner, so only a few fixed-size objects are left (two
// today: the link and the cluster).
const maxRunAllocs = 4

// TestWarmRunsAllocateNoArrays checks that a warmed 1-degree run, in the
// regular and in the remote-I/O model, allocates none of its per-task
// arrays.  A run allocates them afresh when the pool has lost its
// recycled runner (a GC clears it, and under the race detector Put drops
// one in four at random), so the count is the least over many one-run
// windows.
func TestWarmRunsAllocateNoArrays(t *testing.T) {
	wf, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []datamgmt.Mode{datamgmt.Regular, datamgmt.RemoteIO} {
		least := math.Inf(1)
		for w := 0; w < 64; w++ {
			least = math.Min(least, testing.AllocsPerRun(1, func() {
				if _, err := Run(wf, Config{Mode: mode}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if least > maxRunAllocs {
			t.Errorf("%v: %v allocations per warmed run, want at most %d", mode, least, maxRunAllocs)
		}
	}
}

// TestRecycledRunsMatch checks that a run is unaffected by the runs a
// recycled runner served before, whatever their size, model, reclaims
// or outcome, and that recycling rewrites no output of an earlier run.
func TestRecycledRunsMatch(t *testing.T) {
	small, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	big, err := montage.Cached(montage.FourDegree())
	if err != nil {
		t.Fatal(err)
	}
	spot := Config{
		Mode: datamgmt.RemoteIO, Processors: 16, RecordCurve: true, RecordSchedule: true,
		Spot:     SpotMarket{RatePerHour: 4, Warning: 120, Downtime: 600, Seed: 3, Horizon: units.Duration(200 * units.SecondsPerHour)},
		Recovery: Recovery{Checkpoint: true, Interval: 300, Overhead: 5, Bytes: 1 << 20},
	}
	first, err := Run(small, spot)
	if err != nil {
		t.Fatal(err)
	}
	if first.Preempted == 0 {
		t.Fatal("no reclaim killed a task")
	}
	kept := first
	kept.Curve = append(kept.Curve[:0:0], first.Curve...)
	kept.Schedule = append(kept.Schedule[:0:0], first.Schedule...)

	// Runs that leave every buffer larger, bank work on the tasks the
	// small run reuses, or stop with tasks running and events queued.
	if _, err := Run(big, Config{Mode: datamgmt.Cleanup, Processors: 64, RecordCurve: true}); err != nil {
		t.Fatal(err)
	}
	bigSpot := spot
	bigSpot.Processors = 128
	if _, err := Run(big, bigSpot); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), polls: 5}
	if _, err := RunContext(ctx, big, bigSpot); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}

	again, err := Run(small, spot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, kept) {
		t.Errorf("a recycled run differs from the first:\n%+v\n%+v", again, kept)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Error("recycling rewrote an earlier run's curve or schedule")
	}
}

// cancelAfter is a context canceled once the run has polled it polls
// times, in the middle of the run.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestConcurrentRunsMatch runs differently shaped plans from several
// goroutines at once, so recycled runners pass between them, and
// requires each result to equal the same plan run alone.
func TestConcurrentRunsMatch(t *testing.T) {
	wf, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	market := SpotMarket{RatePerHour: 4, Warning: 120, Downtime: 600, Seed: 5, Horizon: units.Duration(50 * units.SecondsPerHour)}
	var cfgs []Config
	for _, mode := range datamgmt.Modes() {
		cfgs = append(cfgs,
			Config{Mode: mode, RecordCurve: true},
			Config{Mode: mode, Processors: 8, Spot: market, RecordSchedule: true,
				Recovery: Recovery{Checkpoint: true, Interval: 300, Overhead: 5, Bytes: 1 << 20}})
	}
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = Run(wf, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range cfgs {
					i := (i + g) % len(cfgs)
					m, err := Run(wf, cfgs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(m, want[i]) {
						t.Errorf("goroutine %d: plan %d differs from its serial run", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
