package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/montage"
)

var update = flag.Bool("update", false, "rewrite the golden wire fixtures")

// v2Fixtures spans the scenario families the goldens pin: the baseline,
// every section at once, a CCR recalibration, a provisioned cleanup run
// on a fast link, a custom-size mosaic, a checkpointed spot fleet and a
// calm-market mixed fleet.
var v2Fixtures = map[string]Scenario{
	"baseline": {Version: 2, Workflow: WorkflowSection{Name: "1deg"}},
	"full": {
		Version:  2,
		Workflow: WorkflowSection{Name: "1deg"},
		Fleet:    &FleetSection{Processors: 16, Reliable: 4},
		Storage:  &StorageSection{Mode: "regular", BandwidthMbps: 100},
		Pricing:  &PricingSection{Billing: "on-demand", CPUPerHour: 0.25},
		Spot:     &SpotSection{RatePerHour: 1.5, Seed: 7, Discount: 0.65},
		Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10, CheckpointBytes: 5e8},
	},
	"ccr": {Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 0.4},
		Fleet: &FleetSection{Processors: 8}, Pricing: &PricingSection{Billing: "provisioned"}},
	"provisioned": {Version: 2, Workflow: WorkflowSection{Name: "1deg"},
		Fleet:   &FleetSection{Processors: 16},
		Storage: &StorageSection{Mode: "cleanup", BandwidthMbps: 100},
		Pricing: &PricingSection{Billing: "provisioned"}},
	"degrees": {Version: 2, Workflow: WorkflowSection{Degrees: 0.5}},
	"spot": {Version: 2, Workflow: WorkflowSection{Name: "1deg"},
		Fleet:    &FleetSection{Processors: 16, Reliable: 4},
		Spot:     &SpotSection{RatePerHour: 1.5, Seed: 7, Discount: 0.65},
		Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10}},
	"calm-mixed": {Version: 2, Workflow: WorkflowSection{Name: "1deg"},
		Fleet: &FleetSection{Processors: 8, Reliable: 2},
		Spot:  &SpotSection{Discount: 0.5}},
}

// TestGoldenDocuments pins the marshaled run document of every fixture
// family against checked-in fixtures: any unintended byte-level drift
// (field renames, ordering, number formatting, simulation results)
// fails here first.  Regenerate intentionally with -update.
func TestGoldenDocuments(t *testing.T) {
	for name, sc := range v2Fixtures {
		t.Run("v2/"+name, func(t *testing.T) {
			spec, plan, err := sc.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			wf, err := montage.Cached(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(wf, plan)
			if err != nil {
				t.Fatal(err)
			}
			body, err := NewRunDocumentV2(spec, res).Encode()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "v2_"+name+".golden.json"), body)
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
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
		t.Fatalf("missing golden fixture (run go test ./wire -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("document drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestRunDocumentEncodeZeroWidthRun guards the utilization divisions: a
// degenerate workflow whose runtimes and file sizes are all zero yields
// a zero-width run, and its document must still encode -- encoding/json
// rejects NaN/Inf, so a bad division would turn every /v2/run response
// for such a workflow into a 500.
func TestRunDocumentEncodeZeroWidthRun(t *testing.T) {
	w := dag.New("degenerate")
	if _, err := w.AddFile("in", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFile("out", 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("noop", "t", 0, []string{"in"}, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(w, core.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Metrics.Utilization; u != 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		t.Errorf("zero-width run utilization = %v, want 0", u)
	}
	doc := NewRunDocumentV2(montage.Spec{Name: "degenerate"}, res)
	if doc.Utilization != (UtilizationDocument{}) {
		t.Errorf("zero-width run utilization split = %+v, want zeros", doc.Utilization)
	}
	body, err := doc.Encode()
	if err != nil {
		t.Fatalf("zero-width run document does not encode: %v", err)
	}
	if !json.Valid(body) {
		t.Errorf("document not valid JSON: %s", body)
	}
}
