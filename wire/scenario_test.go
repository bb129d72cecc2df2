package wire

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/units"
)

func TestScenarioResolveBaseline(t *testing.T) {
	spec, plan, err := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "montage-1deg" {
		t.Errorf("spec = %q", spec.Name)
	}
	if plan.Mode != datamgmt.Regular || plan.Billing != core.OnDemand ||
		plan.Bandwidth != units.Mbps(10) || plan.Processors != 0 {
		t.Errorf("baseline defaults not applied: %+v", plan)
	}
	if plan.Pricing != cost.Amazon2008() {
		t.Errorf("pricing default = %+v", plan.Pricing)
	}
}

// TestScenarioResolvePresets: every preset, and the full-name alias,
// resolves to its mosaic with the paper's baseline plan.
func TestScenarioResolvePresets(t *testing.T) {
	for _, tc := range []struct {
		workflow string
		spec     string
	}{{"1deg", "montage-1deg"}, {"2deg", "montage-2deg"}, {"4deg", "montage-4deg"}, {"montage-1deg", "montage-1deg"}} {
		spec, plan, err := Scenario{Version: 2, Workflow: WorkflowSection{Name: tc.workflow}}.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", tc.workflow, err)
		}
		if spec.Name != tc.spec {
			t.Errorf("%s resolved to %s", tc.workflow, spec.Name)
		}
		if plan.Billing != core.OnDemand || plan.Mode != datamgmt.Regular {
			t.Errorf("%s: defaults not applied: %+v", tc.workflow, plan)
		}
		if plan.Bandwidth != units.Mbps(10) {
			t.Errorf("%s: bandwidth default %v, want 10 Mbps", tc.workflow, plan.Bandwidth)
		}
	}
}

func TestScenarioResolveCustomDegrees(t *testing.T) {
	spec, _, err := Scenario{Version: 2, Workflow: WorkflowSection{Degrees: 3}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.Name, "3deg") {
		t.Errorf("custom spec named %q", spec.Name)
	}
}

// TestScenarioResolveDegreesBounds pins the degrees validation: a
// negative size must be called out as such, not fall through to the
// misleading "selects no workflow" error, and the cap is inclusive.
func TestScenarioResolveDegreesBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		degrees float64
		wantErr string
	}{
		{"negative", -2, "negative degrees"},
		{"zero", 0, "selects no workflow"},
		{"over cap", 21, "exceeds the 20-degree request limit"},
		{"at cap", 20, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Scenario{Version: 2, Workflow: WorkflowSection{Degrees: tc.degrees}}.Resolve()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("degrees %v rejected: %v", tc.degrees, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("degrees %v error = %v, want %q", tc.degrees, err, tc.wantErr)
			}
		})
	}
}

func TestScenarioResolveVersionGate(t *testing.T) {
	for _, v := range []int{0, 1, 3} {
		if _, _, err := (Scenario{Version: v, Workflow: WorkflowSection{Name: "1deg"}}).Resolve(); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}

func TestScenarioResolveAllSections(t *testing.T) {
	s := Scenario{
		Version:  2,
		Workflow: WorkflowSection{Name: "2deg"},
		Fleet:    &FleetSection{Processors: 16, Reliable: 4},
		Storage:  &StorageSection{Mode: "cleanup", BandwidthMbps: 100},
		Pricing:  &PricingSection{Billing: "provisioned", CPUPerHour: 0.25, Granularity: "per-hour"},
		Spot:     &SpotSection{RatePerHour: 1.5, Seed: 7, Discount: 0.65},
		Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10, CheckpointBytes: 5e8},
	}
	spec, plan, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "montage-2deg" {
		t.Errorf("spec = %q", spec.Name)
	}
	if plan.Mode != datamgmt.Cleanup || plan.Processors != 16 || plan.Billing != core.Provisioned ||
		plan.Bandwidth != units.Mbps(100) {
		t.Errorf("plan knobs not applied: %+v", plan)
	}
	if plan.Pricing.CPUPerHour != 0.25 || plan.Pricing.Granularity != cost.PerHour ||
		plan.Pricing.StoragePerGBMonth != cost.Amazon2008().StoragePerGBMonth {
		t.Errorf("pricing overrides wrong: %+v", plan.Pricing)
	}
	wantSpot := core.SpotPlan{RatePerHour: 1.5, Warning: 120, Downtime: 600, Seed: 7, Discount: 0.65, OnDemand: 4}
	if plan.Spot != wantSpot {
		t.Errorf("spot plan = %+v, want %+v (defaults filled)", plan.Spot, wantSpot)
	}
	if !plan.Recovery.Checkpoint || plan.Recovery.Interval != 300 ||
		plan.Recovery.Overhead != 10 || plan.Recovery.Bytes != 5e8 {
		t.Errorf("recovery = %+v", plan.Recovery)
	}
}

func TestScenarioResolveCCR(t *testing.T) {
	spec, _, err := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 0.4}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.TargetCCR != 0.4 {
		t.Errorf("TargetCCR = %v, want 0.4", spec.TargetCCR)
	}
}

func TestScenarioResolveErrors(t *testing.T) {
	wf := WorkflowSection{Name: "1deg"}
	for name, s := range map[string]Scenario{
		"no workflow":            {Version: 2},
		"both selectors":         {Version: 2, Workflow: WorkflowSection{Name: "1deg", Degrees: 2}},
		"unknown workflow":       {Version: 2, Workflow: WorkflowSection{Name: "9deg"}},
		"negative degrees":       {Version: 2, Workflow: WorkflowSection{Degrees: -2}},
		"oversized degrees":      {Version: 2, Workflow: WorkflowSection{Degrees: 500}},
		"negative ccr":           {Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: -1}},
		"bad mode":               {Version: 2, Workflow: wf, Storage: &StorageSection{Mode: "sideways"}},
		"negative bandwidth":     {Version: 2, Workflow: wf, Storage: &StorageSection{BandwidthMbps: -10}},
		"bad billing":            {Version: 2, Workflow: wf, Pricing: &PricingSection{Billing: "prepaid"}},
		"bad granularity":        {Version: 2, Workflow: wf, Pricing: &PricingSection{Granularity: "per-minute"}},
		"negative rate":          {Version: 2, Workflow: wf, Pricing: &PricingSection{CPUPerHour: -1}},
		"negative processors":    {Version: 2, Workflow: wf, Fleet: &FleetSection{Processors: -1}},
		"negative reliable":      {Version: 2, Workflow: wf, Fleet: &FleetSection{Reliable: -1}},
		"reliable over fleet":    {Version: 2, Workflow: wf, Fleet: &FleetSection{Processors: 4, Reliable: 5}},
		"no spot capacity":       {Version: 2, Workflow: wf, Fleet: &FleetSection{Processors: 4, Reliable: 4}, Spot: &SpotSection{RatePerHour: 1}},
		"negative spot rate":     {Version: 2, Workflow: wf, Spot: &SpotSection{RatePerHour: -1}},
		"negative warning":       {Version: 2, Workflow: wf, Spot: &SpotSection{RatePerHour: 1, WarningSeconds: -1}},
		"negative downtime":      {Version: 2, Workflow: wf, Spot: &SpotSection{RatePerHour: 1, DowntimeSeconds: -1}},
		"bad discount":           {Version: 2, Workflow: wf, Spot: &SpotSection{RatePerHour: 1, Discount: 1}},
		"negative checkpoint":    {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointSeconds: -1}},
		"overhead without ckpt":  {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointOverheadSeconds: 5}},
		"bytes without ckpt":     {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointBytes: 100}},
		"negative ckpt bytes":    {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointBytes: -1}},
		"negative ckpt overhead": {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: -1}},
		"negative storage rate":  {Version: 2, Workflow: wf, Pricing: &PricingSection{StoragePerGBMonth: -0.1}},
		"negative transfer-in":   {Version: 2, Workflow: wf, Pricing: &PricingSection{TransferInPerGB: -0.1}},
		"negative transfer-out":  {Version: 2, Workflow: wf, Pricing: &PricingSection{TransferOutPerGB: -0.1}},
		"bandwidth overflow":     {Version: 2, Workflow: wf, Storage: &StorageSection{BandwidthMbps: 1.7e308}},
		"ckpt bytes past int64":  {Version: 2, Workflow: wf, Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointBytes: 1e19}},
		"ccr past the limit":     {Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 1e30}},
		"degrees under limit":    {Version: 2, Workflow: WorkflowSection{Degrees: 1e-300}},
		"bandwidth under limit":  {Version: 2, Workflow: wf, Storage: &StorageSection{BandwidthMbps: 1e-300}},
		"cpu rate past limit":    {Version: 2, Workflow: wf, Pricing: &PricingSection{CPUPerHour: 1e308}},
	} {
		if _, _, err := s.Resolve(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScenarioResolveLimits pins each request limit at its edge: the
// limit itself resolves, and a value past it is refused with an error
// naming the knob.  A CCR too small for its mosaic is not one of them:
// only generation knows the mosaic's fixed files, and the service maps
// montage.ErrCCRUnreachable to a 400.
func TestScenarioResolveLimits(t *testing.T) {
	wf := WorkflowSection{Name: "1deg"}
	for _, c := range []struct {
		knob     string
		at, past Scenario
	}{
		{"workflow.degrees",
			Scenario{Version: 2, Workflow: WorkflowSection{Degrees: minRequestDegrees}},
			Scenario{Version: 2, Workflow: WorkflowSection{Degrees: minRequestDegrees / 2}}},
		{"workflow.ccr",
			Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: maxRequestCCR}},
			Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 2 * maxRequestCCR}}},
		{"storage.bandwidth_mbps",
			Scenario{Version: 2, Workflow: wf, Storage: &StorageSection{BandwidthMbps: minRequestBandwidthMbps}},
			Scenario{Version: 2, Workflow: wf, Storage: &StorageSection{BandwidthMbps: minRequestBandwidthMbps / 2}}},
		{"pricing.cpu_per_hour",
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{CPUPerHour: maxRequestRate}},
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{CPUPerHour: 2 * maxRequestRate}}},
		{"pricing.storage_per_gb_month",
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{StoragePerGBMonth: maxRequestRate}},
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{StoragePerGBMonth: 2 * maxRequestRate}}},
		{"pricing.transfer_in_per_gb",
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{TransferInPerGB: maxRequestRate}},
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{TransferInPerGB: 2 * maxRequestRate}}},
		{"pricing.transfer_out_per_gb",
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{TransferOutPerGB: maxRequestRate}},
			Scenario{Version: 2, Workflow: wf, Pricing: &PricingSection{TransferOutPerGB: 2 * maxRequestRate}}},
	} {
		if _, _, err := c.at.Resolve(); err != nil {
			t.Errorf("%s at its limit: %v", c.knob, err)
		}
		if _, _, err := c.past.Resolve(); err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("%s past its limit: err = %v, want an error naming it", c.knob, err)
		}
	}
}

// TestScenarioResolveRejectsNonFinite sets each float knob in turn to
// NaN, +Inf and -Inf and requires Resolve to refuse the scenario with
// an error naming the knob's JSON path.  JSON cannot carry these
// values, so only scenarios built in Go reach here with one.
func TestScenarioResolveRejectsNonFinite(t *testing.T) {
	for path, set := range map[string]func(*Scenario, float64){
		"workflow.degrees":             func(s *Scenario, v float64) { s.Workflow = WorkflowSection{Degrees: v} },
		"workflow.ccr":                 func(s *Scenario, v float64) { s.Workflow.CCR = v },
		"storage.bandwidth_mbps":       func(s *Scenario, v float64) { s.Storage = &StorageSection{BandwidthMbps: v} },
		"pricing.cpu_per_hour":         func(s *Scenario, v float64) { s.Pricing = &PricingSection{CPUPerHour: v} },
		"pricing.storage_per_gb_month": func(s *Scenario, v float64) { s.Pricing = &PricingSection{StoragePerGBMonth: v} },
		"pricing.transfer_in_per_gb":   func(s *Scenario, v float64) { s.Pricing = &PricingSection{TransferInPerGB: v} },
		"pricing.transfer_out_per_gb":  func(s *Scenario, v float64) { s.Pricing = &PricingSection{TransferOutPerGB: v} },
		"spot.rate_per_hour":           func(s *Scenario, v float64) { s.Spot = &SpotSection{RatePerHour: v} },
		"spot.warning_seconds":         func(s *Scenario, v float64) { s.Spot = &SpotSection{RatePerHour: 1, WarningSeconds: v} },
		"spot.downtime_seconds":        func(s *Scenario, v float64) { s.Spot = &SpotSection{RatePerHour: 1, DowntimeSeconds: v} },
		"spot.discount":                func(s *Scenario, v float64) { s.Spot = &SpotSection{RatePerHour: 1, Discount: v} },
		"recovery.checkpoint_seconds":  func(s *Scenario, v float64) { s.Recovery = &RecoverySection{CheckpointSeconds: v} },
		"recovery.checkpoint_overhead_seconds": func(s *Scenario, v float64) {
			s.Recovery = &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: v}
		},
		"recovery.checkpoint_bytes": func(s *Scenario, v float64) {
			s.Recovery = &RecoverySection{CheckpointSeconds: 300, CheckpointBytes: v}
		},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg"}, Fleet: &FleetSection{Processors: 16}}
			set(&s, v)
			_, _, err := s.Resolve()
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%s = %v: err = %v, want an error naming %s", path, v, err, path)
			}
		}
	}
}

// TestScenarioResolveZeroSections pins the sweep-critical property that
// a section whose knobs are all zero resolves exactly like an absent
// one: an axis sweeping spot.rate_per_hour or
// recovery.checkpoint_seconds down to their documented-valid zero
// values must not 400 the whole grid.
func TestScenarioResolveZeroSections(t *testing.T) {
	base := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg"}}
	_, want, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	zeroed := Scenario{
		Version:  2,
		Workflow: WorkflowSection{Name: "1deg"},
		Spot:     &SpotSection{},
		Recovery: &RecoverySection{},
	}
	_, got, err := zeroed.Resolve()
	if err != nil {
		t.Fatalf("zero-valued sections rejected: %v", err)
	}
	if got.Spot != want.Spot || got.Recovery != want.Recovery {
		t.Errorf("zero-valued sections resolved differently: spot %+v recovery %+v", got.Spot, got.Recovery)
	}

	// The reviewer's reproduction: a spot axis over a base with no spot
	// section, swept through 0.
	req := SweepRequest{
		Scenario: Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg"}, Fleet: &FleetSection{Processors: 4}},
		Axes:     []Axis{{Path: "spot.rate_per_hour", Values: []any{0.0, 0.5}}},
	}
	points, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if _, _, err := p.Scenario.Resolve(); err != nil {
			t.Errorf("grid point %d does not resolve: %v", i, err)
		}
	}
}

// TestEchoScenarioRoundTrips pins the echo contract: the scenario a v2
// document echoes back resolves to exactly the spec and plan it
// reports, so any response is re-POSTable.
func TestEchoScenarioRoundTrips(t *testing.T) {
	for name, s := range map[string]Scenario{
		"baseline": {Version: 2, Workflow: WorkflowSection{Name: "1deg"}},
		"custom":   {Version: 2, Workflow: WorkflowSection{Degrees: 3}},
		"ccr":      {Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 0.4}},
		"full": {
			Version:  2,
			Workflow: WorkflowSection{Name: "1deg"},
			Fleet:    &FleetSection{Processors: 16, Reliable: 4},
			Storage:  &StorageSection{Mode: "cleanup", BandwidthMbps: 100},
			Pricing:  &PricingSection{Billing: "provisioned", CPUPerHour: 0.25},
			Spot:     &SpotSection{RatePerHour: 1.5, Seed: 7, Discount: 0.65},
			Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10, CheckpointBytes: 5e8},
		},
	} {
		t.Run(name, func(t *testing.T) {
			spec, plan, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			echo := EchoScenario(spec, plan)
			spec2, plan2, err := echo.Resolve()
			if err != nil {
				t.Fatalf("echo does not resolve: %v", err)
			}
			if spec2 != spec {
				t.Errorf("echo spec = %+v, want %+v", spec2, spec)
			}
			if plan2.Mode != plan.Mode || plan2.Processors != plan.Processors ||
				plan2.Billing != plan.Billing || plan2.Bandwidth != plan.Bandwidth ||
				plan2.Pricing != plan.Pricing || plan2.Spot != plan.Spot ||
				plan2.Recovery != plan.Recovery {
				t.Errorf("echo plan = %+v, want %+v", plan2, plan)
			}
			if CanonicalRunKeyV2(spec2, plan2) != CanonicalRunKeyV2(spec, plan) {
				t.Error("echo resolves to a different cache key")
			}
		})
	}
}

func TestDecodeStrictRejectsUnknownFields(t *testing.T) {
	for name, body := range map[string]string{
		"top level":      `{"version": 2, "workflow": {"name": "1deg"}, "wokflow": {}}`,
		"nested section": `{"version": 2, "workflow": {"name": "1deg"}, "spot": {"rate_per_hr": 1}}`,
		"trailing data":  `{"version": 2, "workflow": {"name": "1deg"}} {"extra": true}`,
	} {
		var s Scenario
		if err := DecodeStrict(strings.NewReader(body), &s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var s Scenario
	if err := DecodeStrict(strings.NewReader(`{"version": 2, "workflow": {"name": "1deg"}}`), &s); err != nil {
		t.Errorf("clean document rejected: %v", err)
	}
}

// TestProcessorCountCostsNoMemory pins that fleet.processors sizes no
// state up front: a provisioned 1-degree run resolved from a scenario
// allocates the same objects and bytes per run at 2^20, 2^31 and 2^40
// processors as at the workflow's full parallelism, so no bound on the
// count is needed to keep a valid scenario from exhausting the daemon.
// The counts read the process-wide MemStats, which also count whatever
// the runtime or an earlier test's goroutines allocate during the
// window, and a run allocates its arrays afresh whenever the engine's
// sync.Pool has lost its recycled runner (a GC clears it, and under the
// race detector Put drops one in four at random).  Both noises only ever
// add, so each count is the least over many one-run windows.
func TestProcessorCountCostsNoMemory(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("processor counts past 2^31 need a 64-bit int")
	}
	spec, _, err := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := montage.Cached(spec)
	if err != nil {
		t.Fatal(err)
	}
	const windows = 64
	perRun := func(procs int) (allocs, bytes float64) {
		_, plan, err := Scenario{
			Version:  2,
			Workflow: WorkflowSection{Name: "1deg"},
			Fleet:    &FleetSection{Processors: procs},
			Pricing:  &PricingSection{Billing: "provisioned"},
		}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := core.RunContext(context.Background(), wf, plan); err != nil {
				t.Fatal(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run()
		allocs, bytes = math.Inf(1), math.Inf(1)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs))
			bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	wantAllocs, wantBytes := perRun(wf.MaxParallelism())
	for _, shift := range []int{20, 31, 40} {
		procs := 1 << shift
		if allocs, bytes := perRun(procs); allocs != wantAllocs || bytes != wantBytes {
			t.Errorf("2^%d processors: %v allocs and %v B per run, want %v and %v as at full parallelism (%d)",
				shift, allocs, bytes, wantAllocs, wantBytes, wf.MaxParallelism())
		}
	}
	t.Logf("%v allocs and %v B per run at every processor count", wantAllocs, wantBytes)
}
