package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/units"
)

// OverloadResult is the introduction's first scenario made quantitative:
// a Montage service with a small local cluster facing a multi-day
// overload, with and without cloud bursting.
type OverloadResult struct {
	Classes  []service.Class
	Seed     int64
	SLA      units.Duration
	Requests int
	Without  service.Stats
	With     service.Stats
}

// DefaultOverloadSeed is the published arrival-stream seed; any other
// seed reproduces another stream on demand.
const DefaultOverloadSeed int64 = 42

// OverloadSeeded simulates a month of 1- and 2-degree mosaic requests
// against an 8-processor local cluster with a 4-hour turnaround target
// and a 3-day, 8x request burst, comparing local-only operation against
// bursting to a 32-processor provisioned cloud pool.  The two class
// measurements and the two month-long simulations each run
// concurrently.  The seed is the arrival stream's, the only stochastic
// input of the scenario, threaded through service.Arrivals so a server
// (or anyone else) can re-run the exact same request stream, or explore
// fresh ones, reproducibly.
func OverloadSeeded(ctx context.Context, seed int64) (OverloadResult, error) {
	cloudPlan := core.DefaultPlan()
	cloudPlan.Billing = core.Provisioned
	cloudPlan.Processors = 32

	classes, err := Sweep[montage.Spec, service.Class]{
		Name:   "overload-classes",
		Points: []montage.Spec{montage.OneDegree(), montage.TwoDegree()},
		Run: func(ctx context.Context, spec montage.Spec) (service.Class, error) {
			return service.MeasureClassContext(ctx, spec, 8, cloudPlan)
		},
	}.Do(ctx)
	if err != nil {
		return OverloadResult{}, err
	}

	day := units.Duration(24 * units.SecondsPerHour)
	arrivals := service.Arrivals{
		N: 600, MeanGap: 2 * units.Duration(units.SecondsPerHour), Classes: 2,
		BurstStart: 10 * day, BurstEnd: 13 * day, BurstRate: 8,
	}.WithSeed(seed)
	reqs, err := arrivals.Generate()
	if err != nil {
		return OverloadResult{}, err
	}

	res := OverloadResult{
		Classes:  classes,
		Seed:     seed,
		SLA:      units.Duration(4 * units.SecondsPerHour),
		Requests: len(reqs),
	}
	stats, err := Sweep[service.Config, service.Stats]{
		Name: "overload-scenarios",
		Points: []service.Config{
			{SLA: res.SLA},
			{SLA: res.SLA, CloudEnabled: true},
		},
		Run: func(ctx context.Context, cfg service.Config) (service.Stats, error) {
			_, s, err := service.Simulate(classes, reqs, cfg)
			return s, err
		},
	}.Do(ctx)
	if err != nil {
		return OverloadResult{}, err
	}
	res.Without, res.With = stats[0], stats[1]
	return res, nil
}

// Table renders the comparison.
func (r OverloadResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Overload scenario: %d requests, %v SLA, 3-day 8x burst", r.Requests, r.SLA),
		"operation", "local-runs", "cloud-runs", "mean-turnaround", "max-turnaround", "sla-violations", "cloud-spend")
	add := func(name string, s service.Stats) {
		t.MustAdd(name, fmt.Sprint(s.LocalRuns), fmt.Sprint(s.CloudRuns),
			s.MeanTurnaround.String(), s.MaxTurnaround.String(),
			fmt.Sprint(s.SLAViolations), s.CloudSpend.String())
	}
	add("local only", r.Without)
	add("cloud burst", r.With)
	return t
}
