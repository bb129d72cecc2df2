package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/units"
)

func TestSpotPlanValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// Each invalid plan must be rejected with an error naming its field.
	cases := map[string]struct {
		sp    SpotPlan
		field string
	}{
		"negative rate":      {SpotPlan{RatePerHour: -1, Downtime: 600}, "rate"},
		"negative warning":   {SpotPlan{RatePerHour: 1, Warning: -1, Downtime: 600}, "warning"},
		"negative downtime":  {SpotPlan{RatePerHour: 1, Downtime: -600}, "downtime"},
		"zero downtime":      {SpotPlan{RatePerHour: 1}, "downtime"},
		"discount over 1":    {SpotPlan{RatePerHour: 1, Downtime: 600, Discount: 1}, "discount"},
		"negative on-demand": {SpotPlan{RatePerHour: 1, Downtime: 600, OnDemand: -1}, "on-demand"},
		"NaN rate":           {SpotPlan{RatePerHour: nan, Downtime: 600}, "rate"},
		"NaN warning":        {SpotPlan{RatePerHour: 1, Warning: units.Duration(nan), Downtime: 600}, "warning"},
		"infinite warning":   {SpotPlan{RatePerHour: 1, Warning: units.Duration(inf), Downtime: 600}, "warning"},
		"NaN downtime":       {SpotPlan{RatePerHour: 1, Downtime: units.Duration(nan)}, "downtime"},
		"infinite downtime":  {SpotPlan{RatePerHour: 1, Downtime: units.Duration(inf)}, "downtime"},
		"NaN discount":       {SpotPlan{RatePerHour: 1, Downtime: 600, Discount: nan}, "discount"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			plan := DefaultPlan()
			plan.Spot = c.sp
			err := plan.Validate()
			if err == nil {
				t.Fatal("invalid spot plan accepted")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name the %s", err, c.field)
			}
		})
	}
	// An infinite rate is valid: each instance is reclaimed again as
	// soon as its downtime ends.
	plan := DefaultPlan()
	plan.Spot = SpotPlan{RatePerHour: inf, Warning: 120, Downtime: 600}
	if err := plan.Validate(); err != nil {
		t.Errorf("infinite reclaim rate rejected: %v", err)
	}
	plan = DefaultPlan()
	plan.Spot = SpotPlan{RatePerHour: 1, Warning: 120, Downtime: 600}
	plan.Preemptions = []exec.Preemption{{Reclaim: 10, Processors: 1, Restore: 20}}
	if err := plan.Validate(); err == nil {
		t.Error("spot plan alongside explicit preemptions accepted")
	}
}

// TestSpotPlanDeterministicAndDistinct pins the declarative scenario's
// cacheability: equal plans reproduce byte-identical results, and the
// spot knobs actually change the run.
func TestSpotPlanDeterministicAndDistinct(t *testing.T) {
	wf, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultPlan()
	plan.Processors = 16
	plan.Spot = SpotPlan{RatePerHour: 3, Warning: 120, Downtime: 600, Seed: 7, Discount: 0.65, OnDemand: 4}
	plan.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 10}

	a, err := Run(wf, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(wf, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs of the same spot plan differ")
	}
	if a.Metrics.Preempted == 0 {
		t.Error("spot plan revoked nothing; the scenario is vacuous")
	}
	if a.Metrics.OnDemandProcessors != 4 {
		t.Errorf("OnDemandProcessors = %d, want 4", a.Metrics.OnDemandProcessors)
	}

	reseeded := plan
	reseeded.Spot.Seed = 8
	c, err := Run(wf, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Metrics, c.Metrics) {
		t.Error("different spot seeds produced identical metrics")
	}
}

// TestSpotPlanMixedBilling checks the CPU bill splits across the fleet:
// reliable CPU-seconds at the full rate, spot CPU-seconds discounted.
func TestSpotPlanMixedBilling(t *testing.T) {
	wf, err := montage.Generate(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultPlan()
	plan.Processors = 16
	plan.Spot = SpotPlan{RatePerHour: 1.5, Warning: 120, Downtime: 600, Seed: 2009, Discount: 0.65, OnDemand: 8}
	plan.Recovery = exec.Recovery{Checkpoint: true, Interval: 300, Overhead: 10}
	res, err := Run(wf, plan)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SpotCPUSeconds <= 0 || m.SpotCPUSeconds >= m.CPUSeconds {
		t.Fatalf("SpotCPUSeconds = %v of %v; expected a strict split", m.SpotCPUSeconds, m.CPUSeconds)
	}
	rate := plan.Pricing.CPUPerHour
	wantCPU := float64(rate)*(m.CPUSeconds-m.SpotCPUSeconds)/3600 +
		float64(rate)*(1-plan.Spot.Discount)*m.SpotCPUSeconds/3600
	if math.Abs(float64(res.Cost.CPU)-wantCPU) > 1e-9 {
		t.Errorf("CPU cost = %v, want %v", res.Cost.CPU, wantCPU)
	}
	// The discounted mixed bill undercuts pricing the same metrics at
	// the flat on-demand rate.
	if flat := plan.Pricing.OnDemand(m); res.Cost.CPU >= flat.CPU {
		t.Errorf("mixed CPU cost %v not below flat %v", res.Cost.CPU, flat.CPU)
	}
	// Utilization is computed against integrated available capacity,
	// which the reclaims shrank below the static pool.
	staticCap := float64(m.Processors) * m.ExecTime.Seconds()
	if m.CapacityProcSeconds >= staticCap {
		t.Errorf("CapacityProcSeconds = %v not below the static %v despite reclaims", m.CapacityProcSeconds, staticCap)
	}
	if got, want := m.Utilization, m.CPUSeconds/m.CapacityProcSeconds; math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
}
