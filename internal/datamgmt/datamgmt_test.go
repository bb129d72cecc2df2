package datamgmt

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/montage"
)

// fig3 builds the paper's Figure 3 example workflow.
func fig3(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("fig3")
	files := []struct {
		name string
		out  bool
	}{
		{"a", false}, {"b", false}, {"c", false}, {"d", false},
		{"e", false}, {"f", false}, {"h", true}, {"g", true},
	}
	for _, f := range files {
		if _, err := w.AddFile(f.name, 10, f.out); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name string, in, out []string) {
		t.Helper()
		if _, err := w.AddTask(name, "r", 1, in, out); err != nil {
			t.Fatal(err)
		}
	}
	add("t0", []string{"a"}, []string{"b"})
	add("t1", []string{"b"}, []string{"c"})
	add("t2", []string{"b"}, []string{"d"})
	add("t3", []string{"c"}, []string{"e"})
	add("t4", []string{"c"}, []string{"f"})
	add("t5", []string{"d"}, []string{"h"})
	add("t6", []string{"e", "f", "h"}, []string{"g"})
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestModeStringsAndParse(t *testing.T) {
	for _, m := range Modes() {
		parsed, err := ParseMode(m.String())
		if err != nil {
			t.Errorf("ParseMode(%q): %v", m.String(), err)
		}
		if parsed != m {
			t.Errorf("round trip %v -> %q -> %v", m, m.String(), parsed)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
	if Mode(42).String() != "mode(42)" {
		t.Errorf("unknown mode string = %q", Mode(42).String())
	}
}

// TestAnalyzerPaperNarrative checks the exact sentence from §3: "file a
// would be deleted after task 0 has completed, however file b would be
// deleted only when task 6 has completed" -- in the figure's structure b
// is consumed by tasks 1 and 2, so it dies when both are done; the
// paper's text describes its own figure loosely, and the precise
// Pegasus semantics (delete after the last consumer) is what we check.
func TestAnalyzerPaperNarrative(t *testing.T) {
	w := fig3(t)
	a, err := NewAnalyzer(w)
	if err != nil {
		t.Fatal(err)
	}
	done := func(id dag.TaskID) string { return deadNames(w, a.TaskDone(id, nil)) }
	// Task 0 completes: file a (consumed only by t0) dies.
	if dead := done(0); dead != "a" {
		t.Fatalf("after t0, dead = [%s], want [a]", dead)
	}
	// Task 1 completes: b still has consumer t2.
	if dead := done(1); dead != "" {
		t.Fatalf("after t1, dead = [%s], want []", dead)
	}
	if got := a.Remaining(w.File("b").ID()); got != 1 {
		t.Errorf("remaining(b) = %d, want 1", got)
	}
	// Task 2 completes: b dies now.
	if dead := done(2); dead != "b" {
		t.Fatalf("after t2, dead = [%s], want [b]", dead)
	}
	// Tasks 3,4,5 complete: c dies after 4, d after 5.
	if dead := done(3); dead != "" {
		t.Fatalf("after t3, dead = [%s], want []", dead)
	}
	if dead := done(4); dead != "c" {
		t.Fatalf("after t4, dead = [%s], want [c]", dead)
	}
	if dead := done(5); dead != "d" {
		t.Fatalf("after t5, dead = [%s], want [d]", dead)
	}
	// Task 6 completes: e and f die; h survives because it is an output.
	if dead := done(6); dead != "e f" {
		t.Fatalf("after t6, dead = [%s], want [e f]", dead)
	}
}

// deadNames renders the files TaskDone reported, in its order.
func deadNames(w *dag.Workflow, ids []dag.FileID) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = w.FileByID(id).Name
	}
	return strings.Join(names, " ")
}

func TestAnalyzerRequiresFinalized(t *testing.T) {
	w := dag.New("unfinished")
	if _, err := NewAnalyzer(w); err == nil {
		t.Error("NewAnalyzer accepted unfinalized workflow")
	}
}

func TestDeletionSchedule(t *testing.T) {
	w := fig3(t)
	sched, err := DeletionSchedule(w, w.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]dag.TaskID{
		"a": 0, "b": 2, "c": 4, "d": 5, "e": 6, "f": 6,
	}
	if len(sched) != len(want) {
		t.Fatalf("schedule has %d entries, want %d: %v", len(sched), len(want), sched)
	}
	for name, id := range want {
		if sched[name] != id {
			t.Errorf("cleanup point of %q = task %d, want %d", name, sched[name], id)
		}
	}
	// Output files g,h must not be scheduled for cleanup.
	if _, ok := sched["g"]; ok {
		t.Error("output g scheduled for cleanup")
	}
	if _, ok := sched["h"]; ok {
		t.Error("output h scheduled for cleanup")
	}
}

func TestDeletionScheduleErrors(t *testing.T) {
	w := fig3(t)
	if _, err := DeletionSchedule(w, w.TopoOrder()[:3]); err == nil {
		t.Error("partial order accepted")
	}
	bad := append([]dag.TaskID{0}, w.TopoOrder()...)
	if _, err := DeletionSchedule(w, bad); err == nil {
		t.Error("duplicated order accepted")
	}
	unfinished := dag.New("x")
	if _, err := DeletionSchedule(unfinished, nil); err == nil {
		t.Error("unfinalized workflow accepted")
	}
}

// Property (on the real Montage workload): replaying any topological
// order through the Analyzer kills every non-output file exactly once,
// and never kills a file before all of its consumers completed.
func TestPropAnalyzerConservation(t *testing.T) {
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(w)
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[dag.TaskID]bool)
	killed := make(map[string]bool)
	for _, id := range w.TopoOrder() {
		done[id] = true
		for _, dead := range a.TaskDone(id, nil) {
			name := w.FileByID(dead).Name
			if killed[name] {
				t.Fatalf("file %q killed twice", name)
			}
			killed[name] = true
			for _, c := range w.File(name).Consumers() {
				if !done[c] {
					t.Fatalf("file %q killed before consumer %d completed", name, c)
				}
			}
		}
	}
	// Every consumable non-output file must have been killed.
	for _, f := range w.Files() {
		deletable := !f.Output && len(f.Consumers()) > 0
		if deletable && !killed[f.Name] {
			t.Errorf("file %q never killed", f.Name)
		}
		if f.Output && killed[f.Name] {
			t.Errorf("output file %q killed", f.Name)
		}
	}
}

// Property: the static DeletionSchedule and the dynamic Analyzer agree
// for any completion order drawn from the topological order.
func TestPropScheduleMatchesAnalyzer(t *testing.T) {
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	order := w.TopoOrder()
	f := func() bool {
		sched, err := DeletionSchedule(w, order)
		if err != nil {
			return false
		}
		a, err := NewAnalyzer(w)
		if err != nil {
			return false
		}
		for _, id := range order {
			for _, dead := range a.TaskDone(id, nil) {
				if sched[w.FileByID(dead).Name] != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}
