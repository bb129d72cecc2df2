package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/obs"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden flight-recorder timelines")

// TestGoldenTimelines pins the full flight-recorder timeline (every
// event, one JSON object per line, then the top-10 critical path) of two
// runs whose event order at equal timestamps is easy to perturb: a
// checkpointing mixed fleet under per-instance spot reclaims, and a
// remote-I/O run with its per-task staging streams.  Any change to the
// engine's tie-breaking, to when reclaims fire relative to other events
// at the same instant, or to the staging order fails here.  Regenerate
// intentionally with
//
//	go test ./internal/core -run TestGoldenTimelines -update
func TestGoldenTimelines(t *testing.T) {
	wf, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	spot := DefaultPlan()
	spot.Processors = 16
	spot.Spot = SpotPlan{RatePerHour: 3, Warning: 120, Downtime: 600, Seed: 7, Discount: 0.65, OnDemand: 4}
	spot.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 10, Bytes: units.Bytes(5e8)}

	remote := DefaultPlan()
	remote.Mode = datamgmt.RemoteIO
	remote.Processors = 8

	for name, plan := range map[string]Plan{"spot-mixed-ckpt": spot, "remote-io": remote} {
		plan := plan
		t.Run(name, func(t *testing.T) {
			rec := obs.NewRecorder(0)
			plan.Recorder = rec
			if _, err := Run(wf, plan); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() > 0 {
				t.Fatalf("recorder dropped %d events", rec.Dropped())
			}
			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			for _, e := range rec.Events() {
				if err := enc.Encode(e); err != nil {
					t.Fatal(err)
				}
			}
			got.WriteString("critical path\n")
			for _, p := range obs.CriticalPath(rec.Events(), 10) {
				if err := enc.Encode(p); err != nil {
					t.Fatal(err)
				}
			}
			checkTimeline(t, filepath.Join("testdata", "timeline_"+name+".golden.ndjson"), got.Bytes())
		})
	}
}

func checkTimeline(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden timeline (run go test ./internal/core -run TestGoldenTimelines -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("timeline drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("timeline drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}
