package dag

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

// buildPaperExample reproduces Figure 3 of the paper: seven tasks 0..6,
// files a..h, task 6 consuming three inputs.
//
//	a -> 0 -> b -> {1, 2}
//	1: b -> c -> 3 -> f'... simplified exactly as in the figure:
//	0(a->b); 1(b->c); 2(b->d); 3(c->e); 4(c->f); 5(d->g... )
//
// We use the figure's structure: 0 produces b from a; 1 and 2 consume b;
// 1 produces c consumed by 3 and 4; 2 produces d consumed by 5; tasks
// 3,4,5 produce e,f,h; task 6 consumes e,f,h and produces g. Outputs of
// the workflow are g and h (per the paper's narration).
func buildPaperExample(t *testing.T) *Workflow {
	t.Helper()
	w := New("fig3")
	mustFile := func(name string, size float64, out bool) {
		if _, err := w.AddFile(name, units.Bytes(size), out); err != nil {
			t.Fatalf("AddFile(%q): %v", name, err)
		}
	}
	mustTask := func(name string, rt float64, in, out []string) {
		if _, err := w.AddTask(name, "routine", units.Duration(rt), in, out); err != nil {
			t.Fatalf("AddTask(%q): %v", name, err)
		}
	}
	mustFile("a", 100, false)
	mustFile("b", 200, false)
	mustFile("c", 300, false)
	mustFile("d", 400, false)
	mustFile("e", 500, false)
	mustFile("f", 600, false)
	mustFile("h", 700, true)
	mustFile("g", 800, true)
	mustTask("t0", 10, []string{"a"}, []string{"b"})
	mustTask("t1", 20, []string{"b"}, []string{"c"})
	mustTask("t2", 30, []string{"b"}, []string{"d"})
	mustTask("t3", 40, []string{"c"}, []string{"e"})
	mustTask("t4", 50, []string{"c"}, []string{"f"})
	mustTask("t5", 60, []string{"d"}, []string{"h"})
	mustTask("t6", 70, []string{"e", "f", "h"}, []string{"g"})
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return w
}

func TestPaperExampleStructure(t *testing.T) {
	w := buildPaperExample(t)
	if got := w.NumTasks(); got != 7 {
		t.Fatalf("NumTasks = %d, want 7", got)
	}
	if got := w.NumFiles(); got != 8 {
		t.Fatalf("NumFiles = %d, want 8", got)
	}
	wantLevels := map[string]int{"t0": 1, "t1": 2, "t2": 2, "t3": 3, "t4": 3, "t5": 3, "t6": 4}
	for _, task := range w.Tasks() {
		if task.Level() != wantLevels[task.Name] {
			t.Errorf("level(%s) = %d, want %d", task.Name, task.Level(), wantLevels[task.Name])
		}
	}
	if got := w.MaxLevel(); got != 4 {
		t.Errorf("MaxLevel = %d, want 4", got)
	}
	if got := w.MaxParallelism(); got != 3 {
		t.Errorf("MaxParallelism = %d, want 3", got)
	}
}

func TestPaperExampleEdges(t *testing.T) {
	w := buildPaperExample(t)
	t6 := w.Task(6)
	if got := len(t6.Parents()); got != 3 {
		t.Fatalf("t6 parents = %d, want 3", got)
	}
	t0 := w.Task(0)
	if got := len(t0.Children()); got != 2 {
		t.Fatalf("t0 children = %d, want 2", got)
	}
	if got := len(t0.Parents()); got != 0 {
		t.Fatalf("t0 parents = %d, want 0", got)
	}
	b := w.File("b")
	if b.Producer != 0 {
		t.Errorf("producer(b) = %d, want 0", b.Producer)
	}
	if got := len(b.Consumers()); got != 2 {
		t.Errorf("consumers(b) = %d, want 2", got)
	}
}

func TestExternalAndOutputs(t *testing.T) {
	w := buildPaperExample(t)
	ins := w.ExternalInputs()
	if len(ins) != 1 || ins[0].Name != "a" {
		t.Fatalf("ExternalInputs = %v, want [a]", names(ins))
	}
	outs := w.OutputFiles()
	if len(outs) != 2 || outs[0].Name != "g" || outs[1].Name != "h" {
		t.Fatalf("OutputFiles = %v, want [g h]", names(outs))
	}
	if got := w.InputBytes(); got != 100 {
		t.Errorf("InputBytes = %d, want 100", got)
	}
	if got := w.OutputBytes(); got != 1500 {
		t.Errorf("OutputBytes = %d, want 1500", got)
	}
}

func names(fs []*File) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	w := buildPaperExample(t)
	pos := make(map[TaskID]int)
	for i, id := range w.TopoOrder() {
		pos[id] = i
	}
	if len(pos) != w.NumTasks() {
		t.Fatalf("topo order has %d entries, want %d", len(pos), w.NumTasks())
	}
	for _, task := range w.Tasks() {
		for _, p := range task.Parents() {
			if pos[p] >= pos[task.ID] {
				t.Errorf("parent %d not before task %d in topo order", p, task.ID)
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	w := buildPaperExample(t)
	if got := w.TotalRuntime(); got != 280 {
		t.Errorf("TotalRuntime = %v, want 280", got)
	}
	if got := w.TotalFileBytes(); got != 3600 {
		t.Errorf("TotalFileBytes = %d, want 3600", got)
	}
	// Critical path: t0(10) -> t2(30) -> t5(60) -> t6(70) = 170.
	if got := w.CriticalPath(); got != 170 {
		t.Errorf("CriticalPath = %v, want 170", got)
	}
}

func TestCCR(t *testing.T) {
	w := buildPaperExample(t)
	b := units.Bandwidth(10) // 10 B/s
	// CCR = (3600/10)/280 = 360/280.
	want := 360.0 / 280.0
	if got := w.CCR(b); !closeTo(got, want) {
		t.Errorf("CCR = %v, want %v", got, want)
	}
	if got := w.CCR(0); got != 0 {
		t.Errorf("CCR at zero bandwidth = %v, want 0", got)
	}
}

func TestRescaleCCR(t *testing.T) {
	w := buildPaperExample(t)
	b := units.Bandwidth(10)
	scaled, err := w.RescaleCCR(2.0, b)
	if err != nil {
		t.Fatalf("RescaleCCR: %v", err)
	}
	if got := scaled.CCR(b); !closeTo(got, 2.0) {
		t.Errorf("scaled CCR = %v, want 2.0", got)
	}
	// The original must be untouched.
	if got := w.TotalFileBytes(); got != 3600 {
		t.Errorf("original TotalFileBytes changed to %d", got)
	}
	if !strings.Contains(scaled.Name, "ccr") {
		t.Errorf("scaled name %q should mention ccr", scaled.Name)
	}
	if _, err := w.RescaleCCR(0, b); err == nil {
		t.Error("RescaleCCR(0) should fail")
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func TestCycleDetection(t *testing.T) {
	w := New("cycle")
	w.AddFile("x", 1, false)
	w.AddFile("y", 1, true)
	if _, err := w.AddTask("t0", "r", 1, []string{"y"}, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("t1", "r", 1, []string{"x"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should detect the cycle")
	}
}

func TestValidationErrors(t *testing.T) {
	w := New("v")
	if _, err := w.AddFile("", 1, false); err == nil {
		t.Error("empty file name accepted")
	}
	if _, err := w.AddFile("f", -1, false); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := w.AddFile("f", 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFile("f", 2, false); err == nil {
		t.Error("duplicate file accepted")
	}
	if _, err := w.AddTask("", "r", 1, nil, nil); err == nil {
		t.Error("empty task name accepted")
	}
	if _, err := w.AddTask("t", "r", -1, nil, nil); err == nil {
		t.Error("negative runtime accepted")
	}
	if _, err := w.AddTask("t", "r", 1, []string{"missing"}, nil); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := w.AddTask("t", "r", 1, nil, []string{"missing"}); err == nil {
		t.Error("unknown output accepted")
	}
	if _, err := w.AddTask("t", "r", 1, []string{"f", "f"}, nil); err == nil {
		t.Error("duplicate input accepted")
	}
	if _, err := w.AddTask("t", "r", 1, nil, []string{"f"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("t", "r", 1, nil, nil); err == nil {
		t.Error("duplicate task name accepted")
	}
	if _, err := w.AddTask("t2", "r", 1, nil, []string{"f"}); err == nil {
		t.Error("second producer accepted")
	}
}

func TestDanglingFileRejected(t *testing.T) {
	w := New("dangling")
	w.AddFile("in", 1, false)
	w.AddFile("orphan", 1, false) // produced, never consumed, not output
	if _, err := w.AddTask("t0", "r", 1, []string{"in"}, []string{"orphan"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should reject a produced-but-unused file")
	}
}

func TestEmptyWorkflowRejected(t *testing.T) {
	w := New("empty")
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize should reject an empty workflow")
	}
}

func TestMutationAfterFinalizeRejected(t *testing.T) {
	w := buildPaperExample(t)
	if _, err := w.AddFile("new", 1, false); err == nil {
		t.Error("AddFile after Finalize accepted")
	}
	if _, err := w.AddTask("new", "r", 1, nil, nil); err == nil {
		t.Error("AddTask after Finalize accepted")
	}
	if err := w.Finalize(); err != nil {
		t.Errorf("second Finalize should be a no-op, got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := buildPaperExample(t)
	c := w.Clone()
	if !c.Finalized() {
		t.Fatal("clone lost finalized state")
	}
	c.File("a").Size = 9999
	if w.File("a").Size != 100 {
		t.Error("mutating clone file changed original")
	}
	if c.NumTasks() != w.NumTasks() || c.MaxLevel() != w.MaxLevel() {
		t.Error("clone structure differs from original")
	}
	if got, want := len(c.TopoOrder()), len(w.TopoOrder()); got != want {
		t.Errorf("clone topo order length %d, want %d", got, want)
	}
}

func TestScaleFileSizes(t *testing.T) {
	w := buildPaperExample(t)
	c := w.Clone()
	if err := c.ScaleFileSizes(2); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFileBytes(); got != 7200 {
		t.Errorf("scaled TotalFileBytes = %d, want 7200", got)
	}
	if err := c.ScaleFileSizes(-1); err == nil {
		t.Error("negative factor accepted")
	}
}

func TestTasksAtLevel(t *testing.T) {
	w := buildPaperExample(t)
	lv3 := w.TasksAtLevel(3)
	if len(lv3) != 3 {
		t.Fatalf("level 3 has %d tasks, want 3", len(lv3))
	}
	if len(w.TasksAtLevel(99)) != 0 {
		t.Error("nonexistent level should be empty")
	}
}

// TestCompiledForm checks what Finalize compiles: dense FileIDs in name
// order, each task's file IDs in declaration and in name order, and
// shared lists that a clone rebuilds over its own files.
func TestCompiledForm(t *testing.T) {
	w := New("compiled")
	for _, name := range []string{"c", "a", "b", "z", "y"} {
		if _, err := w.AddFile(name, units.Bytes(len(name)), name == "z" || name == "y"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AddTask("sorted", "r", 1, []string{"a", "b"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("unsorted", "r", 1, []string{"c", "a"}, []string{"z"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	ids := func(names ...string) []FileID {
		out := make([]FileID, len(names))
		for i, n := range names {
			out[i] = w.File(n).ID()
		}
		return out
	}
	for i, f := range w.Files() {
		if f.ID() != FileID(i) || w.FileByID(FileID(i)) != f {
			t.Fatalf("file %q has ID %d at position %d", f.Name, f.ID(), i)
		}
	}
	if got, want := w.Files()[0].Name, "a"; got != want {
		t.Errorf("first file %q, want %q", got, want)
	}
	same := func(a, b []FileID) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	for _, tc := range []struct {
		task                     TaskID
		in, out, declIn, declOut []FileID
	}{
		{0, ids("a", "b"), ids("y"), ids("a", "b"), ids("y")},
		{1, ids("a", "c"), ids("z"), ids("c", "a"), ids("z")},
	} {
		if got := w.InputIDs(tc.task); !same(got, tc.in) {
			t.Errorf("task %d InputIDs = %v, want %v", tc.task, got, tc.in)
		}
		if got := w.OutputIDs(tc.task); !same(got, tc.out) {
			t.Errorf("task %d OutputIDs = %v, want %v", tc.task, got, tc.out)
		}
		if got := w.DeclaredInputIDs(tc.task); !same(got, tc.declIn) {
			t.Errorf("task %d DeclaredInputIDs = %v, want %v", tc.task, got, tc.declIn)
		}
		if got := w.DeclaredOutputIDs(tc.task); !same(got, tc.declOut) {
			t.Errorf("task %d DeclaredOutputIDs = %v, want %v", tc.task, got, tc.declOut)
		}
	}
	if &w.Files()[0] != &w.Files()[0] {
		t.Error("Files returns a fresh slice on every call; want the compiled one")
	}
	if got := w.ExternalInputs(); len(got) != 3 || got[0].Name != "a" || got[2].Name != "c" {
		t.Errorf("ExternalInputs = %v", got)
	}
	if got := w.OutputFiles(); len(got) != 2 || got[0].Name != "y" || got[1].Name != "z" {
		t.Errorf("OutputFiles = %v", got)
	}
	c := w.Clone()
	for i, f := range c.Files() {
		if f == w.Files()[i] || c.File(f.Name) != f {
			t.Fatalf("clone's compiled list points at the original's file %q", f.Name)
		}
	}
	if got := c.DeclaredInputIDs(1); !same(got, ids("c", "a")) {
		t.Errorf("clone DeclaredInputIDs = %v", got)
	}
}
