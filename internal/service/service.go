// Package service simulates the application tier of the paper's Figure
// 2: a mosaic service (the Montage portal) that owns a modest local
// cluster and reaches out to the cloud "to handle sporadic overloads of
// mosaic requests" -- the first usage scenario of the introduction and
// the motivation behind Question 1.
//
// The request manager applies a simple, auditable policy: serve a
// request locally when the local queue can still meet the turnaround
// target, otherwise provision cloud resources for it and pay the
// per-request price measured by the simulator.
package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/montage"
	"repro/internal/units"
)

// Class is a request type with measured turnaround/cost profiles: how
// long it runs on the service's own cluster, and how long/expensive it
// is on the cloud under the chosen plan.
type Class struct {
	Name      string
	LocalTime units.Duration // turnaround on the local cluster (exclusive use)
	CloudTime units.Duration // turnaround on the cloud under the plan
	CloudCost units.Money    // what the cloud run costs
}

// Validate rejects degenerate classes.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("service: class without a name")
	}
	if c.LocalTime <= 0 || c.CloudTime <= 0 {
		return fmt.Errorf("service: class %q has non-positive runtimes", c.Name)
	}
	if c.CloudCost < 0 {
		return fmt.Errorf("service: class %q has negative cloud cost", c.Name)
	}
	return nil
}

// MeasureClass builds a Class by simulation: the local turnaround comes
// from running the workflow on localProcs processors with co-located
// data (a fast LAN instead of the 10 Mbps WAN), the cloud profile from
// running it under cloudPlan.
func MeasureClass(spec montage.Spec, localProcs int, cloudPlan core.Plan) (Class, error) {
	return MeasureClassContext(context.Background(), spec, localProcs, cloudPlan)
}

// MeasureClassContext is MeasureClass with cooperative cancellation of
// the two measurement simulations.
func MeasureClassContext(ctx context.Context, spec montage.Spec, localProcs int, cloudPlan core.Plan) (Class, error) {
	wf, err := montage.Cached(spec)
	if err != nil {
		return Class{}, err
	}
	local := core.DefaultPlan()
	local.Processors = localProcs
	local.Bandwidth = units.Mbps(1000) // data is already at the service
	lr, err := core.RunContext(ctx, wf, local)
	if err != nil {
		return Class{}, err
	}
	cr, err := core.RunContext(ctx, wf, cloudPlan)
	if err != nil {
		return Class{}, err
	}
	return Class{
		Name:      spec.Name,
		LocalTime: lr.Metrics.ExecTime,
		CloudTime: cr.Metrics.Makespan,
		CloudCost: cr.Cost.Total(),
	}, nil
}

// Request is one user mosaic request.
type Request struct {
	ID      int
	Class   int // index into the class list
	Arrival units.Duration
}

// Decision says where a request ran.
type Decision int

const (
	// Local means the service's own cluster served the request.
	Local Decision = iota
	// Cloud means the request was farmed out to the cloud.
	Cloud
)

// String names the decision.
func (d Decision) String() string {
	if d == Cloud {
		return "cloud"
	}
	return "local"
}

// Outcome records how one request was served.
type Outcome struct {
	Request
	Decision Decision
	Start    units.Duration
	Finish   units.Duration
	Cost     units.Money // cloud spend; zero for local runs (sunk cost)
}

// Turnaround is the user-visible latency.
func (o Outcome) Turnaround() units.Duration { return o.Finish - o.Arrival }

// Config parameterizes the request manager.
type Config struct {
	// SLA is the turnaround target; a request whose projected local
	// turnaround exceeds it is sent to the cloud.
	SLA units.Duration
	// CloudEnabled gates bursting; with it off everything queues locally
	// (the baseline the cloud option is compared against).
	CloudEnabled bool
}

// Stats aggregates a simulation.
type Stats struct {
	Requests       int
	LocalRuns      int
	CloudRuns      int
	CloudSpend     units.Money
	MeanTurnaround units.Duration
	MaxTurnaround  units.Duration
	SLAViolations  int
}

// Simulate runs the request manager over the arrival stream.  The local
// cluster serves one request at a time in FIFO order (Montage workflows
// saturate a small cluster); the cloud has effectively unlimited
// capacity, so cloud requests never queue.
func Simulate(classes []Class, reqs []Request, cfg Config) ([]Outcome, Stats, error) {
	if len(classes) == 0 {
		return nil, Stats{}, fmt.Errorf("service: no request classes")
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, Stats{}, err
		}
	}
	if cfg.SLA <= 0 {
		return nil, Stats{}, fmt.Errorf("service: non-positive SLA %v", cfg.SLA)
	}
	sorted := append([]Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })

	var (
		outcomes    = make([]Outcome, 0, len(sorted))
		localFreeAt units.Duration
		stats       = Stats{Requests: len(sorted)}
		totalTurn   units.Duration
	)
	for _, r := range sorted {
		if r.Class < 0 || r.Class >= len(classes) {
			return nil, Stats{}, fmt.Errorf("service: request %d has unknown class %d", r.ID, r.Class)
		}
		if r.Arrival < 0 {
			return nil, Stats{}, fmt.Errorf("service: request %d arrives before time zero", r.ID)
		}
		c := classes[r.Class]
		localStart := r.Arrival
		if localFreeAt > localStart {
			localStart = localFreeAt
		}
		localFinish := localStart + c.LocalTime
		o := Outcome{Request: r}
		if cfg.CloudEnabled && localFinish-r.Arrival > cfg.SLA {
			o.Decision = Cloud
			o.Start = r.Arrival
			o.Finish = r.Arrival + c.CloudTime
			o.Cost = c.CloudCost
			stats.CloudRuns++
			stats.CloudSpend += c.CloudCost
		} else {
			o.Decision = Local
			o.Start = localStart
			o.Finish = localFinish
			localFreeAt = localFinish
			stats.LocalRuns++
		}
		turn := o.Turnaround()
		totalTurn += turn
		if turn > stats.MaxTurnaround {
			stats.MaxTurnaround = turn
		}
		if turn > cfg.SLA {
			stats.SLAViolations++
		}
		outcomes = append(outcomes, o)
	}
	if stats.Requests > 0 {
		stats.MeanTurnaround = totalTurn / units.Duration(stats.Requests)
	}
	return outcomes, stats, nil
}

// Arrivals generates a deterministic request stream: exponential
// inter-arrival gaps with the given mean, plus an overload burst (a
// window during which the arrival rate multiplies), the "sporadic
// overload" of the paper's introduction.
//
// All randomness flows from Seed through a private source -- this
// package never touches math/rand's package-global generator -- so the
// same Arrivals value always yields the same stream, no matter what
// else in the process is drawing random numbers.  That is what lets a
// long-running server replay the Figure-2 scenario on demand.
type Arrivals struct {
	Seed       int64
	N          int
	MeanGap    units.Duration // mean inter-arrival time outside the burst
	Classes    int            // class indices are drawn uniformly
	BurstStart units.Duration // 0,0 disables the burst
	BurstEnd   units.Duration
	BurstRate  float64 // arrival-rate multiplier inside the burst (>= 1)
}

// WithSeed returns a copy of the arrival spec reseeded to seed: the
// explicit seed-threading point for callers (the experiment registry,
// the HTTP server) that expose reproducible reruns of the scenario.
func (a Arrivals) WithSeed(seed int64) Arrivals {
	a.Seed = seed
	return a
}

// Generate produces the stream.
func (a Arrivals) Generate() ([]Request, error) {
	if a.N <= 0 {
		return nil, fmt.Errorf("service: non-positive request count %d", a.N)
	}
	if a.MeanGap <= 0 {
		return nil, fmt.Errorf("service: non-positive mean gap %v", a.MeanGap)
	}
	if a.Classes <= 0 {
		return nil, fmt.Errorf("service: non-positive class count %d", a.Classes)
	}
	if a.BurstEnd < a.BurstStart {
		return nil, fmt.Errorf("service: burst window inverted")
	}
	if a.BurstRate < 1 && a.BurstEnd > a.BurstStart {
		return nil, fmt.Errorf("service: burst rate %v below 1", a.BurstRate)
	}
	rng := rand.New(rand.NewSource(a.Seed))
	reqs := make([]Request, 0, a.N)
	var now units.Duration
	for i := 0; i < a.N; i++ {
		gap := units.Duration(rng.ExpFloat64()) * a.MeanGap
		if now >= a.BurstStart && now < a.BurstEnd && a.BurstRate > 1 {
			gap = units.Duration(float64(gap) / a.BurstRate)
		}
		now += gap
		reqs = append(reqs, Request{ID: i, Class: rng.Intn(a.Classes), Arrival: now})
	}
	return reqs, nil
}
