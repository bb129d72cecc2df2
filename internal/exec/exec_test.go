package exec

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/units"
)

// tiny builds a 2-task chain with sizes chosen for exact arithmetic at a
// 10 B/s link:
//
//	in1 (100 B, external) -> A (10 s) -> mid (50 B) -> B (20 s) -> out (200 B, output)
func tiny(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("tiny")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := w.AddFile("in1", 100, false)
	must(err)
	_, err = w.AddFile("mid", 50, false)
	must(err)
	_, err = w.AddFile("out", 200, true)
	must(err)
	_, err = w.AddTask("A", "r", 10, []string{"in1"}, []string{"mid"})
	must(err)
	_, err = w.AddTask("B", "r", 20, []string{"mid"}, []string{"out"})
	must(err)
	must(w.Finalize())
	return w
}

const tinyBW = units.Bandwidth(10) // 10 B/s

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestRegularTinyExact(t *testing.T) {
	m, err := Run(tiny(t), Config{Mode: datamgmt.Regular, Processors: 1, Bandwidth: tinyBW, RecordCurve: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecTime != 40 {
		t.Errorf("ExecTime = %v, want 40", m.ExecTime)
	}
	if m.Makespan != 60 {
		t.Errorf("Makespan = %v, want 60", m.Makespan)
	}
	if m.BytesIn != 100 || m.BytesOut != 200 {
		t.Errorf("bytes in/out = %d/%d, want 100/200", m.BytesIn, m.BytesOut)
	}
	// in1 resident [10,60], mid [20,60], out [40,60]:
	// 50*100 + 40*50 + 20*200 = 11000 byte-seconds.
	if !almost(m.StorageByteSeconds, 11000) {
		t.Errorf("StorageByteSeconds = %v, want 11000", m.StorageByteSeconds)
	}
	if m.CPUSeconds != 30 {
		t.Errorf("CPUSeconds = %v, want 30", m.CPUSeconds)
	}
	if m.PeakStorage != 350 {
		t.Errorf("PeakStorage = %d, want 350", m.PeakStorage)
	}
	if m.TasksRun != 2 {
		t.Errorf("TasksRun = %d, want 2", m.TasksRun)
	}
	// Utilization = 30 / (1 * 40).
	if !almost(m.Utilization, 0.75) {
		t.Errorf("Utilization = %v, want 0.75", m.Utilization)
	}
	// Everything must be deleted at the end.
	last := m.Curve[len(m.Curve)-1]
	if last.Bytes != 0 {
		t.Errorf("storage not empty at end: %d bytes", last.Bytes)
	}
}

func TestCleanupTinyExact(t *testing.T) {
	m, err := Run(tiny(t), Config{Mode: datamgmt.Cleanup, Processors: 1, Bandwidth: tinyBW})
	if err != nil {
		t.Fatal(err)
	}
	// in1 resident [10,20], mid [20,40], out [40,60]:
	// 10*100 + 20*50 + 20*200 = 6000 byte-seconds.
	if !almost(m.StorageByteSeconds, 6000) {
		t.Errorf("StorageByteSeconds = %v, want 6000", m.StorageByteSeconds)
	}
	// Transfers identical to Regular (the paper: "the amount of data
	// transfer in the Regular and the Cleanup mode are the same").
	if m.BytesIn != 100 || m.BytesOut != 200 {
		t.Errorf("bytes in/out = %d/%d, want 100/200", m.BytesIn, m.BytesOut)
	}
	if m.ExecTime != 40 || m.Makespan != 60 {
		t.Errorf("times = %v/%v, want 40/60", m.ExecTime, m.Makespan)
	}
}

func TestRemoteIOTinyExact(t *testing.T) {
	m, err := Run(tiny(t), Config{Mode: datamgmt.RemoteIO, Processors: 1, Bandwidth: tinyBW, RecordCurve: true})
	if err != nil {
		t.Fatal(err)
	}
	// A: stage in1 [0,10], compute [10,20], stage out mid [20,25].
	// B: stage mid [25,30], compute [30,50], stage out out [50,70].
	if m.Makespan != 70 {
		t.Errorf("Makespan = %v, want 70", m.Makespan)
	}
	if m.ExecTime != 70 {
		t.Errorf("ExecTime = %v, want 70", m.ExecTime)
	}
	// Re-transfers: in = 100 + 50, out = 50 + 200.
	if m.BytesIn != 150 || m.BytesOut != 250 {
		t.Errorf("bytes in/out = %d/%d, want 150/250", m.BytesIn, m.BytesOut)
	}
	// t0/in1 [10,25]*100 + t0/mid [20,25]*50 + t1/mid [30,70]*50 +
	// t1/out [50,70]*200 = 1500+250+2000+4000 = 7750.
	if !almost(m.StorageByteSeconds, 7750) {
		t.Errorf("StorageByteSeconds = %v, want 7750", m.StorageByteSeconds)
	}
	last := m.Curve[len(m.Curve)-1]
	if last.Bytes != 0 {
		t.Errorf("storage not empty at end: %d bytes", last.Bytes)
	}
}

func TestMoreProcessorsNeverSlower(t *testing.T) {
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	prev := units.Duration(math.Inf(1))
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		m, err := Run(w, Config{Mode: datamgmt.Regular, Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		if m.ExecTime > prev {
			t.Errorf("%d processors slower than fewer: %v > %v", p, m.ExecTime, prev)
		}
		prev = m.ExecTime
	}
}

func TestModeInvariantsOnMontage(t *testing.T) {
	// The qualitative orderings of Figs. 7-9.
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[datamgmt.Mode]Metrics)
	for _, mode := range datamgmt.Modes() {
		m, err := Run(w, Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = m
	}
	rem, reg, cln := results[datamgmt.RemoteIO], results[datamgmt.Regular], results[datamgmt.Cleanup]

	// Storage: regular is the most expensive mode (Fig. 7 top), and both
	// cleanup and remote I/O beat it.  (The paper's remote < cleanup
	// ordering does not reproduce under our synthetic profile at full
	// parallelism.)
	if !(cln.StorageByteSeconds < reg.StorageByteSeconds) {
		t.Errorf("storage: cleanup %v not < regular %v", cln.StorageByteSeconds, reg.StorageByteSeconds)
	}
	if !(rem.StorageByteSeconds < reg.StorageByteSeconds) {
		t.Errorf("storage: remote %v not < regular %v", rem.StorageByteSeconds, reg.StorageByteSeconds)
	}
	// Transfers: remote I/O moves the most data both ways; regular and
	// cleanup move the same (Fig. 7 middle).
	if !(rem.BytesIn > reg.BytesIn) {
		t.Errorf("bytes in: remote %d not > regular %d", rem.BytesIn, reg.BytesIn)
	}
	if !(rem.BytesOut > reg.BytesOut) {
		t.Errorf("bytes out: remote %d not > regular %d", rem.BytesOut, reg.BytesOut)
	}
	if reg.BytesIn != cln.BytesIn || reg.BytesOut != cln.BytesOut {
		t.Errorf("regular/cleanup transfer mismatch: %d/%d vs %d/%d",
			reg.BytesIn, reg.BytesOut, cln.BytesIn, cln.BytesOut)
	}
	// Regular/cleanup stage in exactly the external inputs and stage out
	// exactly the declared outputs.
	if reg.BytesIn != w.InputBytes() {
		t.Errorf("regular BytesIn = %d, want %d", reg.BytesIn, w.InputBytes())
	}
	if reg.BytesOut != w.OutputBytes() {
		t.Errorf("regular BytesOut = %d, want %d", reg.BytesOut, w.OutputBytes())
	}
	// CPU bill is mode-invariant (Fig. 10 discussion).
	if rem.CPUSeconds != reg.CPUSeconds || reg.CPUSeconds != cln.CPUSeconds {
		t.Error("CPUSeconds varies across modes")
	}
}

func TestDeterminism(t *testing.T) {
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range datamgmt.Modes() {
		a, err := Run(w, Config{Mode: mode, Processors: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(w, Config{Mode: mode, Processors: 8})
		if err != nil {
			t.Fatal(err)
		}
		a.Curve, b.Curve = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two identical runs differ:\n%+v\n%+v", mode, a, b)
		}
	}
}

func TestAllPresetsAllModesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full preset sweep is slow")
	}
	for _, spec := range montage.Presets() {
		w, err := montage.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range datamgmt.Modes() {
			m, err := Run(w, Config{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, mode, err)
			}
			if m.TasksRun != spec.TaskCount() {
				t.Errorf("%s/%v: ran %d tasks, want %d", spec.Name, mode, m.TasksRun, spec.TaskCount())
			}
			if m.Utilization < 0 || m.Utilization > 1+1e-9 {
				t.Errorf("%s/%v: utilization %v outside [0,1]", spec.Name, mode, m.Utilization)
			}
			if m.Makespan < m.ExecTime {
				t.Errorf("%s/%v: makespan %v < exec time %v", spec.Name, mode, m.Makespan, m.ExecTime)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := tiny(t)
	if _, err := Run(w, Config{Mode: datamgmt.Mode(9)}); err == nil {
		t.Error("bogus mode accepted")
	}
	if _, err := Run(w, Config{Mode: datamgmt.Regular, Processors: -1}); err == nil {
		t.Error("negative processors accepted")
	}
	if _, err := Run(w, Config{Mode: datamgmt.Regular, SpotRatePerHour: math.NaN()}); err == nil {
		t.Error("NaN spot rate accepted")
	}
	unfinished := dag.New("x")
	if _, err := Run(unfinished, Config{Mode: datamgmt.Regular}); err == nil {
		t.Error("unfinalized workflow accepted")
	}
}

func TestDefaultProcessorsIsMaxParallelism(t *testing.T) {
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(w, Config{Mode: datamgmt.Regular})
	if err != nil {
		t.Fatal(err)
	}
	if m.Processors != w.MaxParallelism() {
		t.Errorf("Processors = %d, want %d", m.Processors, w.MaxParallelism())
	}
}

func TestOneDegreeAnchors(t *testing.T) {
	// Fig. 4 anchors: 1 processor ~5.5 h, 128 processors ~18 min.
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Run(w, Config{Mode: datamgmt.Regular, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h := m1.ExecTime.Hours(); h < 5.0 || h > 6.2 {
		t.Errorf("1-proc exec time = %v h, want ~5.5 h", h)
	}
	m128, err := Run(w, Config{Mode: datamgmt.Regular, Processors: 128})
	if err != nil {
		t.Fatal(err)
	}
	if min := m128.ExecTime.Seconds() / 60; min < 10 || min > 30 {
		t.Errorf("128-proc exec time = %v min, want ~18 min", min)
	}
}
