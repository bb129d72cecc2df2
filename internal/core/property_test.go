package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/montage"
)

// Metamorphic properties of a run through the plan API, checked over
// random layered DAGs and the three presets in every data-management
// mode.

// propWorkflows returns the presets and a few random layered DAGs.
func propWorkflows(t *testing.T) []*dag.Workflow {
	t.Helper()
	var wfs []*dag.Workflow
	for _, spec := range []montage.Spec{montage.OneDegree(), montage.TwoDegree(), montage.FourDegree()} {
		wf, err := montage.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		wfs = append(wfs, wf)
	}
	for seed := int64(1); seed <= 8; seed++ {
		wfs = append(wfs, dagtest.RandomLayered(seed))
	}
	return wfs
}

// spotPlan is a plan on procs processors under the spot market sp,
// checkpointing every 300 s.
func spotPlan(mode datamgmt.Mode, procs int, sp SpotPlan) Plan {
	p := DefaultPlan()
	p.Mode = mode
	p.Processors = procs
	p.Spot = sp
	p.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 5}
	return p
}

// TestPropZeroRateSpotIsReliable: a spot section whose reclaim rate is
// zero runs exactly like no spot section.  Only the bill differs, by
// the discount.
func TestPropZeroRateSpotIsReliable(t *testing.T) {
	zero := SpotPlan{Warning: 120, Downtime: 600, Seed: 7, Discount: 0.65}
	for _, wf := range propWorkflows(t) {
		for _, mode := range datamgmt.Modes() {
			for _, procs := range []int{1, 8, 0} {
				with, err := Run(wf, spotPlan(mode, procs, zero))
				if err != nil {
					t.Fatal(err)
				}
				without, err := Run(wf, spotPlan(mode, procs, SpotPlan{}))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(with.Metrics, without.Metrics) {
					t.Errorf("%s %v on %d processors: a zero-rate spot section changed the metrics:\n got %+v\nwant %+v",
						wf.Name, mode, procs, with.Metrics, without.Metrics)
				}
				if with.Cost.CPU >= without.Cost.CPU && without.Cost.CPU > 0 {
					t.Errorf("%s %v on %d processors: discounted CPU %v not below %v", wf.Name, mode, procs, with.Cost.CPU, without.Cost.CPU)
				}
			}
		}
	}
}

// TestPropMakespanCoversCriticalPath: no run finishes before its
// workflow's critical path could, with or without spot reclaims.
func TestPropMakespanCoversCriticalPath(t *testing.T) {
	wfs := propWorkflows(t)
	f := func(wfRaw, modeRaw, procsRaw uint8, rateRaw uint8, seed int64) bool {
		wf := wfs[int(wfRaw)%len(wfs)]
		mode := datamgmt.Modes()[int(modeRaw)%3]
		procs := int(procsRaw)%16 + 1
		for _, sp := range []SpotPlan{{}, {RatePerHour: float64(rateRaw%8) + 0.5, Warning: 120, Downtime: 600, Seed: seed}} {
			res, err := Run(wf, spotPlan(mode, procs, sp))
			if err != nil || res.Metrics.Makespan < wf.CriticalPath() {
				t.Logf("%s %v on %d processors, spot %+v: makespan %v, critical path %v, err %v",
					wf.Name, mode, procs, sp, res.Metrics.Makespan, wf.CriticalPath(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
