package exec

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/units"
)

// fanout builds a workflow of independent single-input tasks with the
// given runtimes; task i reads external file "in<i>" (10 bytes) and
// writes output "out<i>".  With tinyBW the stage-in phase takes one
// second per input.
func fanout(t *testing.T, runtimes ...units.Duration) *dag.Workflow {
	t.Helper()
	w := dag.New("fanout")
	for i, rt := range runtimes {
		in := []string{"in" + string(rune('0'+i))}
		out := []string{"out" + string(rune('0'+i))}
		if _, err := w.AddFile(in[0], 10, false); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFile(out[0], 10, true); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddTask("T"+string(rune('0'+i)), "t", rt, in, out); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestUtilizationCapacityDenominator is the regression for the
// capacity-aware utilization fix: a mid-run reclaim must shrink the
// utilization denominator to the capacity actually available, where the
// old Processors x ExecTime formula kept billing the revoked slots as
// available.
func TestUtilizationCapacityDenominator(t *testing.T) {
	// tiny on 2 processors: stage-in [0,10], A [10,20], B [20,40], so one
	// slot is always idle.  Reclaiming it at 15 kills nothing and leaves
	// every timing untouched -- only the capacity integral changes:
	// 2*15 + 1*25 = 55 proc-s over ExecTime [0,40] instead of 80.
	m, err := Run(tiny(t), Config{
		Mode: datamgmt.Regular, Processors: 2, Bandwidth: tinyBW,
		Preemptions: []Preemption{{Reclaim: 15, Processors: 1, Restore: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preempted != 0 || m.ExecTime != 40 {
		t.Fatalf("reclaim of the idle slot changed the run: %+v", m)
	}
	if !almost(m.CapacityProcSeconds, 55) {
		t.Errorf("CapacityProcSeconds = %v, want 55", m.CapacityProcSeconds)
	}
	if !almost(m.Utilization, 30.0/55.0) {
		t.Errorf("Utilization = %v, want %v", m.Utilization, 30.0/55.0)
	}
	static := m.CPUSeconds / (float64(m.Processors) * m.ExecTime.Seconds())
	if almost(m.Utilization, static) {
		t.Errorf("Utilization %v still matches the static-pool formula %v", m.Utilization, static)
	}
}

// TestFleetPlacesCriticalPathOnReliable pins the mixed-fleet scheduler:
// the highest-upward-rank tasks claim the reliable on-demand slots, and
// a reclaim kills only the spot residents.
func TestFleetPlacesCriticalPathOnReliable(t *testing.T) {
	// Four independent tasks, runtimes 40/30/20/10 (= their upward
	// ranks), stage-in ends at 4.  On a 4-proc fleet with 2 reliable
	// slots, T0 (40) and T1 (30) run reliably; T2 and T3 are spot.
	w := fanout(t, 40, 30, 20, 10)
	m, err := Run(w, Config{
		Mode: datamgmt.Regular, Processors: 4, OnDemandProcessors: 2,
		Bandwidth: tinyBW, RecordSchedule: true,
		Preemptions: []Preemption{{Reclaim: 12, Processors: 2, Restore: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.OnDemandProcessors != 2 {
		t.Errorf("OnDemandProcessors = %d, want 2", m.OnDemandProcessors)
	}
	// Both spot residents die at 12, re-running from scratch at 30.
	if m.Preempted != 2 {
		t.Errorf("Preempted = %d, want 2", m.Preempted)
	}
	if !almost(m.WastedCPUSeconds, 16) { // 8 s burned on each victim
		t.Errorf("WastedCPUSeconds = %v, want 16", m.WastedCPUSeconds)
	}
	spans := map[string][]TaskSpan{}
	for _, s := range m.Schedule {
		spans[s.Name] = append(spans[s.Name], s)
	}
	// The reliable residents run [4, 4+runtime] uninterrupted.
	if got := spans["T0"]; len(got) != 1 || got[0].Start != 4 || got[0].Finish != 44 {
		t.Errorf("T0 spans = %+v, want one [4,44]", got)
	}
	if got := spans["T1"]; len(got) != 1 || got[0].Start != 4 || got[0].Finish != 34 {
		t.Errorf("T1 spans = %+v, want one [4,34]", got)
	}
	// The spot residents show a killed attempt [4,12] and a restart at 30.
	for name, finish := range map[string]units.Duration{"T2": 50, "T3": 40} {
		got := spans[name]
		if len(got) != 2 || got[0].Start != 4 || got[0].Finish != 12 ||
			got[1].Start != 30 || got[1].Finish != finish {
			t.Errorf("%s spans = %+v, want killed [4,12] then [30,%v]", name, got, finish)
		}
	}
	// Spot CPU split: victims burned 2*8 before the kill, then 20+10 on
	// the restarts; the reliable sub-pool ran 40+30.
	if !almost(m.SpotCPUSeconds, 46) {
		t.Errorf("SpotCPUSeconds = %v, want 46", m.SpotCPUSeconds)
	}
	if !almost(m.CPUSeconds, 116) {
		t.Errorf("CPUSeconds = %v, want 116", m.CPUSeconds)
	}
	// Capacity over ExecTime [0,50]: 4 procs on [0,12), 2 on [12,30),
	// 4 on [30,50).
	if !almost(m.CapacityProcSeconds, 4*12+2*18+4*20) {
		t.Errorf("CapacityProcSeconds = %v, want 164", m.CapacityProcSeconds)
	}
	if !almost(m.Utilization, 116.0/164.0) {
		t.Errorf("Utilization = %v, want %v", m.Utilization, 116.0/164.0)
	}
}

// TestVictimOrderLatestStartFirst pins deterministic victim selection:
// within the spot pool the most recently started attempt dies first,
// regardless of task IDs or remaining work.
func TestVictimOrderLatestStartFirst(t *testing.T) {
	// T0 (10 s) feeds T2 (30 s); T1 (40 s) is independent.  On 2
	// processors: stage-in ends 2, T0 [2,12], T1 [2,42], T2 [12,42].
	w := dag.New("stagger")
	files := []struct {
		name   string
		output bool
	}{{"in0", false}, {"in1", false}, {"mid", false}, {"out1", true}, {"out2", true}}
	for _, f := range files {
		if _, err := w.AddFile(f.name, 10, f.output); err != nil {
			t.Fatal(err)
		}
	}
	mustTask := func(name string, rt units.Duration, in, out []string) {
		t.Helper()
		if _, err := w.AddTask(name, "t", rt, in, out); err != nil {
			t.Fatal(err)
		}
	}
	mustTask("T0", 10, []string{"in0"}, []string{"mid"})
	mustTask("T1", 40, []string{"in1"}, []string{"out1"})
	mustTask("T2", 30, []string{"mid"}, []string{"out2"})
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	// At 17 both T1 (started 2) and T2 (started 12) are running; the
	// reclaim must kill T2, the latest-started, not the longer-running
	// T1.
	m, err := Run(w, Config{
		Mode: datamgmt.Regular, Processors: 2, Bandwidth: tinyBW, RecordSchedule: true,
		Preemptions: []Preemption{{Reclaim: 17, Processors: 1, Restore: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preempted != 1 {
		t.Fatalf("Preempted = %d, want 1", m.Preempted)
	}
	var t1, t2 []TaskSpan
	for _, s := range m.Schedule {
		switch s.Name {
		case "T1":
			t1 = append(t1, s)
		case "T2":
			t2 = append(t2, s)
		}
	}
	if len(t1) != 1 || t1[0].Finish != 42 {
		t.Errorf("T1 spans = %+v, want one uninterrupted [2,42]", t1)
	}
	// The surviving processor frees up when T1 completes at 42; the
	// killed T2 restarts there from scratch.
	if len(t2) != 2 || t2[0].Finish != 17 || t2[1].Start != 42 || t2[1].Finish != 72 {
		t.Errorf("T2 spans = %+v, want killed [12,17] then a restart [42,72]", t2)
	}
}

// TestReclaimVictimRestartsOnIdleReliableSlot is the regression for the
// missing dispatch after a reclaim: a killed spot task must restart
// immediately on an idle reliable processor instead of waiting for the
// next unrelated completion or restore event.
func TestReclaimVictimRestartsOnIdleReliableSlot(t *testing.T) {
	// A(10) fans out to B(50), C(50), D(90), D2(90); E(100) needs B and
	// C.  Upward ranks: A 160, B/C 150, E 100, D/D2 90.  On 4 procs with
	// 2 reliable: A runs reliably [1,11]; then B,C take the reliable
	// slots and D,D2 the spot ones [11,101].  B,C finish at 61, E takes
	// one reliable slot [61,161] -- the other goes idle.
	w := dag.New("idle-reliable")
	addFile := func(name string, output bool) {
		t.Helper()
		if _, err := w.AddFile(name, 10, output); err != nil {
			t.Fatal(err)
		}
	}
	addFile("inA", false)
	for _, f := range []string{"aB", "aC", "aD", "aD2", "fB", "fC"} {
		addFile(f, false)
	}
	for _, f := range []string{"outD", "outD2", "outE"} {
		addFile(f, true)
	}
	addTask := func(name string, rt units.Duration, in, out []string) {
		t.Helper()
		if _, err := w.AddTask(name, "t", rt, in, out); err != nil {
			t.Fatal(err)
		}
	}
	addTask("A", 10, []string{"inA"}, []string{"aB", "aC", "aD", "aD2"})
	addTask("B", 50, []string{"aB"}, []string{"fB"})
	addTask("C", 50, []string{"aC"}, []string{"fC"})
	addTask("D", 90, []string{"aD"}, []string{"outD"})
	addTask("D2", 90, []string{"aD2"}, []string{"outD2"})
	addTask("E", 100, []string{"fB", "fC"}, []string{"outE"})
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	// The reclaim at 70 kills D2 (latest start, ID descending) while a
	// reliable slot has been idle since 61: D2 must restart there at 70,
	// not at D's completion (101) or the restore (670).
	m, err := Run(w, Config{
		Mode: datamgmt.Regular, Processors: 4, OnDemandProcessors: 2,
		Bandwidth: tinyBW, RecordSchedule: true,
		Preemptions: []Preemption{{Reclaim: 70, Processors: 1, Restore: 670}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preempted != 1 {
		t.Fatalf("Preempted = %d, want 1", m.Preempted)
	}
	var d2 []TaskSpan
	for _, s := range m.Schedule {
		if s.Name == "D2" {
			d2 = append(d2, s)
		}
	}
	if len(d2) != 2 || d2[0].Finish != 70 || d2[1].Start != 70 || d2[1].Finish != 160 {
		t.Errorf("D2 spans = %+v, want killed [11,70] then an immediate restart [70,160]", d2)
	}
	if m.ExecTime != 161 { // E [61,161] is the last computation
		t.Errorf("ExecTime = %v, want 161", m.ExecTime)
	}
}

// TestHeterogeneousWarningsSimultaneousVictims exercises two reclaims
// firing at the same instant with different warning leads: the victim
// with a warning shorter than the checkpoint overhead falls back to its
// last periodic checkpoint, while the longer-warned one cuts an
// emergency checkpoint at notice time.
func TestHeterogeneousWarningsSimultaneousVictims(t *testing.T) {
	// Two independent 20 s tasks on 2 processors, checkpointing every
	// 5 s of work at 1 s overhead: stage-in ends 2, both attempts run
	// [2,25] (20 work + 3 checkpoints).  Both reclaims land at 12, 10 s
	// in, past one full 6 s cycle (5 s banked).
	w := fanout(t, 20, 20)
	rec := Recovery{Checkpoint: true, Interval: 5, Overhead: 1}
	m, err := Run(w, Config{
		Mode: datamgmt.Regular, Processors: 2, Bandwidth: tinyBW, Recovery: rec,
		Preemptions: []Preemption{
			// The 0.5 s warning cannot fit the 1 s checkpoint write; the
			// 2 s warning banks the 7 s of useful work done by notice
			// time (one cycle plus 2 s of the next).
			{Reclaim: 12, Processors: 1, Warning: 0.5, Restore: 40},
			{Reclaim: 12, Processors: 1, Warning: 2, Restore: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preempted != 2 {
		t.Fatalf("Preempted = %d, want 2", m.Preempted)
	}
	// Victim order is ID-descending on equal starts: the first (short)
	// warning kills T1 (5 s banked, 5 s wasted), the second kills T0
	// with the emergency checkpoint (7 s banked, 3 s wasted).
	if !almost(m.WastedCPUSeconds, 8) {
		t.Errorf("WastedCPUSeconds = %v, want 8", m.WastedCPUSeconds)
	}
	// Checkpoints: T1 one periodic; T0 one periodic plus the emergency
	// one; then the restarts (13 s and 15 s of work) write two each.
	if m.Checkpoints != 7 {
		t.Errorf("Checkpoints = %d, want 7", m.Checkpoints)
	}
	// Restarts at 40: T0 has 13 s + 2 checkpoints = [40,55], T1 has
	// 15 s + 2 = [40,57].
	if m.ExecTime != 57 {
		t.Errorf("ExecTime = %v, want 57", m.ExecTime)
	}
}

func TestFleetValidation(t *testing.T) {
	w := tiny(t)
	cases := map[string]Config{
		"negative on-demand":   {OnDemandProcessors: -1},
		"on-demand over fleet": {Processors: 2, OnDemandProcessors: 3},
		"no spot capacity": {Processors: 2, OnDemandProcessors: 2,
			Preemptions: []Preemption{{Reclaim: 5, Processors: 1, Restore: 10}}},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.Mode = datamgmt.Regular
			if cfg.Processors == 0 {
				cfg.Processors = 1
			}
			cfg.Bandwidth = tinyBW
			if _, err := Run(w, cfg); err == nil {
				t.Error("invalid fleet config accepted")
			}
		})
	}
	// A permanent whole-spot-pool revocation is fine when a reliable
	// floor remains to finish the workflow.
	m, err := Run(w, Config{
		Mode: datamgmt.Regular, Processors: 2, OnDemandProcessors: 1, Bandwidth: tinyBW,
		Preemptions: []Preemption{{Reclaim: 5, Processors: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TasksRun != 2 {
		t.Errorf("TasksRun = %d, want 2", m.TasksRun)
	}
}

func TestSpotScheduleInstances(t *testing.T) {
	const (
		horizon = units.Duration(24 * 3600)
		warning = units.Duration(120)
		down    = units.Duration(900)
	)
	a, err := SpotScheduleInstances(horizon, 8, 0.5, warning, down, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpotScheduleInstances(horizon, 8, 0.5, warning, down, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed sampled different per-instance schedules")
	}
	if len(a) < 8 {
		t.Fatalf("only %d events over 24 h at 0.5/h on 8 instances", len(a))
	}
	if err := validatePreemptions(a, 9, 0); err != nil {
		t.Errorf("sampled schedule invalid: %v", err)
	}
	heterogeneous := false
	for i, p := range a {
		if p.Processors != 1 {
			t.Fatalf("event %d reclaims %d processors, want per-instance 1", i, p.Processors)
		}
		if p.Restore != p.Reclaim+down {
			t.Errorf("event %d restore = %v, want reclaim+%v", i, p.Restore, down)
		}
		if p.Warning > warning || (p.Warning < warning/2 && p.Warning != p.Reclaim) {
			t.Errorf("event %d warning %v outside [%v,%v]", i, p.Warning, warning/2, warning)
		}
		if i > 0 && p.Warning != a[0].Warning {
			heterogeneous = true
		}
	}
	if !heterogeneous {
		t.Error("all sampled warnings identical; heterogeneity lost")
	}
	c, err := SpotScheduleInstances(horizon, 8, 0.5, warning, down, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds sampled identical schedules")
	}
	if empty, err := SpotScheduleInstances(3600, 8, 0, warning, down, 1); err != nil || empty != nil {
		t.Errorf("zero rate = (%v, %v), want empty", empty, err)
	}
	if _, err := SpotScheduleInstances(0, 8, 1, 0, 60, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := SpotScheduleInstances(3600, 0, 1, 0, 60, 1); err == nil {
		t.Error("zero procs accepted")
	}
	// A near-zero downtime lets an infinite-rate instance be reclaimed
	// without end: refused before anything is sized, as are too many
	// instances at an ordinary rate.
	for _, c := range []struct {
		procs      int
		rate, down float64
	}{{16, 1e12, 1e-9}, {1 << 20, 1, 600}} {
		if _, err := SpotScheduleInstances(177*3600, c.procs, c.rate, 120, units.Duration(c.down), 1); !errors.Is(err, ErrSpotScheduleTooLarge) {
			t.Errorf("%d instances at %g/h, %g s down: err = %v, want ErrSpotScheduleTooLarge", c.procs, c.rate, c.down, err)
		}
	}
	// NaN fails every check, and only the rate may be infinite.
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		horizon, warning, down units.Duration
		rate                   float64
	}{
		"NaN horizon":       {units.Duration(nan), 0, 60, 1},
		"infinite horizon":  {units.Duration(inf), 0, 60, 1},
		"NaN rate":          {3600, 0, 60, nan},
		"NaN warning":       {3600, units.Duration(nan), 60, 1},
		"infinite warning":  {3600, units.Duration(inf), 60, 1},
		"NaN downtime":      {3600, 0, units.Duration(nan), 1},
		"infinite downtime": {3600, 0, units.Duration(inf), 1},
	} {
		if _, err := SpotScheduleInstances(c.horizon, 8, c.rate, c.warning, c.down, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Downtime spaces an instance's reclaims, so no rate -- however
	// extreme -- yields more than horizon/down+1 reclaims per instance.
	for _, rate := range []float64{1e12, math.Inf(1)} {
		s, err := SpotScheduleInstances(horizon, 8, rate, warning, down, 1)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if limit := 8 * int(horizon/down+1); len(s) == 0 || len(s) > limit {
			t.Errorf("rate %v sampled %d reclaims, want 1..%d", rate, len(s), limit)
		}
		if err := validatePreemptions(s, 9, 0); err != nil {
			t.Errorf("rate %v: sampled schedule invalid: %v", rate, err)
		}
	}
}

// TestSpotScheduleInstancesMatchesReference pins the sampler's output
// to its reference construction -- a fresh rand source per instance and
// a stable sort of the concatenated streams by (Reclaim, Warning,
// Restore) -- across fleet sizes that are not powers of two and
// horizons short enough that some instances draw nothing.
func TestSpotScheduleInstancesMatchesReference(t *testing.T) {
	reference := func(horizon units.Duration, procs int, rate float64, warning, down units.Duration, seed int64) []Preemption {
		var out []Preemption
		for i := 0; i < procs; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)*-0x61c8864680b583eb))
			var t units.Duration
			for {
				t += units.Duration(rng.ExpFloat64() / rate * units.SecondsPerHour)
				if t >= horizon {
					break
				}
				w := warning - units.Duration(rng.Float64()*0.5*float64(warning))
				if w > t {
					w = t
				}
				out = append(out, Preemption{Reclaim: t, Processors: 1, Warning: w, Restore: t + down})
				t += down
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Reclaim != b.Reclaim {
				return a.Reclaim < b.Reclaim
			}
			if a.Warning != b.Warning {
				return a.Warning < b.Warning
			}
			return a.Restore < b.Restore
		})
		return out
	}
	for _, tc := range []struct {
		horizon units.Duration
		procs   int
		rate    float64
		seed    int64
	}{
		{3600, 1, 2, 1},
		{1800, 7, 0.5, 2},
		{24 * 3600, 13, 1, 3},
		{48 * 3600, 128, 1, 4},
		{600, 64, 0.1, 5},
	} {
		got, err := SpotScheduleInstances(tc.horizon, tc.procs, tc.rate, 120, 600, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := reference(tc.horizon, tc.procs, tc.rate, 120, 600, tc.seed)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: schedule of %d reclaims differs from the %d-reclaim reference", tc, len(got), len(want))
		}
	}
}
