package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/dax"
	"repro/internal/exec"
	"repro/internal/montage"
)

var update = flag.Bool("update", false, "rewrite the golden wfinfo outputs")

// writeDAX writes the workflow of spec as a DAX file in a temporary
// directory and returns its path.
func writeDAX(t *testing.T, spec montage.Spec) string {
	t.Helper()
	w, err := montage.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dax.Write(f, w); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenOutput pins wfinfo's whole output on the three presets and
// on a 2-degree DAX file, in every data-management mode.  Regenerate
// intentionally with
//
//	go test ./cmd/wfinfo -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	daxPath := writeDAX(t, montage.TwoDegree())
	sources := []struct{ name, preset, dax string }{
		{"1deg", "1deg", ""},
		{"2deg", "2deg", ""},
		{"4deg", "4deg", ""},
		{"2deg-dax", "", daxPath},
	}
	for _, src := range sources {
		for _, mode := range datamgmt.Modes() {
			name := src.name + "." + mode.String()
			t.Run(name, func(t *testing.T) {
				var got bytes.Buffer
				if err := run(src.preset, src.dax, mode.String(), &got); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", name+".golden.txt")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden output (run go test ./cmd/wfinfo -update): %v", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
				}
			})
		}
	}
}

func oneDeg(t *testing.T) *dag.Workflow {
	t.Helper()
	w, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// planCells returns the plan table's count and bytes cells by job kind.
func planCells(wf *dag.Workflow, mode datamgmt.Mode) map[string][]string {
	cells := make(map[string][]string, 4)
	for _, row := range planTable(wf, mode).Rows {
		cells[row[0]] = row[1:]
	}
	return cells
}

func checkCounts(t *testing.T, cells map[string][]string, want map[string]string) {
	t.Helper()
	for kind, n := range want {
		if got := cells[kind][0]; got != n {
			t.Errorf("%s jobs = %s, want %s", kind, got, n)
		}
	}
}

func TestRegularPlanShape(t *testing.T) {
	w := oneDeg(t)
	cells := planCells(w, datamgmt.Regular)
	// One stage-in per external input (46: 45 images + template), one
	// compute per task, one stage-out per output (mosaic + jpeg).
	checkCounts(t, cells, map[string]string{"stage-in": "46", "compute": "203", "cleanup": "0", "stage-out": "2"})
	// Transfer totals are the workflow's external volumes.
	if got, want := cells["stage-in"][1], w.InputBytes().String(); got != want {
		t.Errorf("stage-in bytes = %s, want %s", got, want)
	}
	if got, want := cells["stage-out"][1], w.OutputBytes().String(); got != want {
		t.Errorf("stage-out bytes = %s, want %s", got, want)
	}
}

func TestCleanupPlanAddsCleanupJobs(t *testing.T) {
	w := oneDeg(t)
	// One cleanup job per deletable file: every file except the two
	// staged-out outputs: 249 - 2 = 247.
	checkCounts(t, planCells(w, datamgmt.Cleanup), map[string]string{"cleanup": "247"})
	// The same files the static deletion schedule removes.
	sched, err := datamgmt.DeletionSchedule(w, w.TopoOrder())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 247 {
		t.Errorf("deletion schedule removes %d files, want 247", len(sched))
	}
}

func TestRemoteIOPlanShape(t *testing.T) {
	w := oneDeg(t)
	// Per task: one stage-in, one compute, one stage-out.
	checkCounts(t, planCells(w, datamgmt.RemoteIO), map[string]string{"stage-in": "203", "compute": "203", "cleanup": "0", "stage-out": "203"})
	// In every mode the printed transfer totals are what the executor
	// moves.
	for _, mode := range datamgmt.Modes() {
		cells := planCells(w, mode)
		m, err := exec.Run(w, exec.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cells["stage-in"][1], m.BytesIn.String(); got != want {
			t.Errorf("%v: planned stage-in bytes %s != executed %s", mode, got, want)
		}
		if got, want := cells["stage-out"][1], m.BytesOut.String(); got != want {
			t.Errorf("%v: planned stage-out bytes %s != executed %s", mode, got, want)
		}
	}
}

func TestRunPreset(t *testing.T) {
	var b strings.Builder
	if err := run("1deg", "", "cleanup", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"montage-1deg", "mProject", "mAdd", "Level structure",
		"Concrete plan (cleanup mode)", "stage-in", "cleanup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDAXFile(t *testing.T) {
	var b strings.Builder
	if err := run("", writeDAX(t, montage.TwoDegree()), "regular", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "montage-2deg") {
		t.Error("output missing workflow name")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run("1deg", "also.xml", "regular", &b); err == nil {
		t.Error("both preset and dax accepted")
	}
	if err := run("9deg", "", "regular", &b); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run("1deg", "", "sideways", &b); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run("", "/nonexistent.xml", "regular", &b); err == nil {
		t.Error("missing file accepted")
	}
}
