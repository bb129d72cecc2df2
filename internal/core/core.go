// Package core is the top of the library: it combines the workload
// generator, the cloud simulator and the fee schedule into the
// experiment API the paper's study is built from.
//
// A Plan says how a mosaic request runs (data-management mode, processor
// pool, link bandwidth) and how it is billed (provisioned pool vs.
// on-demand CPU, under a Pricing).  Run executes one workflow under one
// plan; the sweep helpers reproduce the paper's parameter scans:
//
//	ProvisioningSweep  Question 1  (Figs. 4-6)
//	CompareModes       Question 2a (Figs. 7-10)
//	CCRSweep           Question 2a (Fig. 11)
//
// The archive-economics questions (2b and 3) build on these results in
// package archive.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Billing selects how CPU time is charged.
type Billing int

const (
	// Provisioned charges the whole processor pool for the whole
	// provisioning window (the paper's Question 1).
	Provisioned Billing = iota
	// OnDemand charges only the CPU seconds tasks actually used (the
	// paper's Question 2).
	OnDemand
)

// String names the billing model.
func (b Billing) String() string {
	if b == OnDemand {
		return "on-demand"
	}
	return "provisioned"
}

// Plan is a complete execution-and-billing plan for a request.
type Plan struct {
	// Mode is the data-management model (remote I/O, regular, cleanup).
	Mode datamgmt.Mode
	// Processors provisioned; 0 means enough for full parallelism.
	Processors int
	// Billing is the CPU charging model.
	Billing Billing
	// Bandwidth of the user<->cloud link; 0 means the paper's 10 Mbps.
	Bandwidth units.Bandwidth
	// Pricing is the fee schedule; the zero value means Amazon2008.
	Pricing cost.Pricing
	// RecordCurve retains the storage usage curve in the result.
	RecordCurve bool
	// VMStartup delays the run by a virtual-machine boot window that the
	// provisioned pool pays for (a §8 extension; zero reproduces the
	// paper).
	VMStartup units.Duration
	// Outages are storage-unavailability windows (a §8 extension).
	Outages []exec.Outage
	// Policy orders the ready queue when processors are scarce; the zero
	// value (FIFO) matches the paper's setup.
	Policy exec.Policy
	// FailureProb retries tasks with this per-attempt probability,
	// billing the burned CPU (a §8 extension; zero reproduces the
	// paper).  FailureSeed makes the sampling deterministic.
	FailureProb float64
	FailureSeed int64
	// Preemptions are spot capacity-reclaim events (a post-paper
	// extension); empty reproduces the paper's reliable capacity.
	Preemptions []exec.Preemption
	// Recovery decides how preempted tasks resume (from scratch by
	// default, or checkpoint/restart).
	Recovery exec.Recovery
	// Spot declaratively describes a seeded spot scenario; the zero
	// value reproduces reliable capacity.  Mutually exclusive with
	// explicit Preemptions.
	Spot SpotPlan
	// Policies names the scheduling and recovery policies of the run,
	// one per decision point (placement, victim, checkpoint, sizing).
	// The zero value selects the historical defaults.
	Policies policy.Bundle
	// Recorder, when non-nil, captures the run's flight-recorder
	// timeline (see package obs).  It is a pure observer: it never
	// changes what the run computes, so it is deliberately excluded from
	// the canonical cache key -- a traced run and an untraced run of the
	// same plan are the same result.
	//repro:nokey recorder — pure observer; a traced and an untraced run of the same plan are the same result
	Recorder *obs.Recorder
}

// SpotPlan is a declarative spot scenario: instead of handing the plan
// a concrete revocation schedule, the caller names the market (reclaim
// rate, warning, downtime, seed, discount) and the fleet split, and the
// runner samples per-instance reclaims once the pool size is known, as
// far into the spot horizon as the run reaches.  Being a flat value
// struct, it travels on the wire and feeds the canonical cache key
// directly.
type SpotPlan struct {
	// RatePerHour is each spot instance's Poisson reclaim intensity;
	// 0 disables revocations.
	RatePerHour float64
	// Warning is the reclaim notice lead (heterogeneous per event:
	// sampled in [Warning/2, Warning]).
	Warning units.Duration
	// Downtime is how long reclaimed capacity stays gone.
	Downtime units.Duration
	// Seed drives the deterministic revocation sampling.
	Seed int64
	// Discount is the fraction taken off the on-demand CPU rate for
	// spot capacity, in [0, 1).
	Discount float64
	// OnDemand is the reliable sub-pool size of a mixed fleet: these
	// processors bill at the full rate and can never be reclaimed.
	OnDemand int
}

// Enabled reports whether the plan describes any spot behaviour.
func (s SpotPlan) Enabled() bool { return s != (SpotPlan{}) }

// Validate rejects inconsistent spot plans.  Every check fails on NaN,
// which would otherwise make the revocation sampler's clock NaN (so it
// never reaches its horizon) or the bill NaN.  The rate may be +Inf;
// the warning, downtime and discount must be finite.
func (s SpotPlan) Validate() error {
	switch {
	case !(s.RatePerHour >= 0):
		return fmt.Errorf("core: spot reclaim rate %v/hour is negative or NaN", s.RatePerHour)
	case !(s.Warning >= 0) || math.IsInf(float64(s.Warning), 1):
		return fmt.Errorf("core: spot warning %v is negative or not finite", s.Warning)
	case !(s.Downtime >= 0) || math.IsInf(float64(s.Downtime), 1):
		return fmt.Errorf("core: spot downtime %v is negative or not finite", s.Downtime)
	case s.RatePerHour > 0 && s.Downtime == 0:
		return fmt.Errorf("core: spot reclaims need a positive downtime")
	case !(s.Discount >= 0 && s.Discount < 1):
		return fmt.Errorf("core: spot discount %v outside [0,1)", s.Discount)
	case s.OnDemand < 0:
		return fmt.Errorf("core: negative on-demand sub-pool %d", s.OnDemand)
	}
	return nil
}

// market is the spot plan as a cost-model value.
func (s SpotPlan) market() cost.Spot {
	return cost.Spot{Discount: s.Discount, RevocationsPerHour: s.RatePerHour}
}

// spotHorizon bounds the revocation-sampling window for a workflow:
// twice the serial compute plus twice the full transfer time, plus an
// hour of slack.  Runs stretched beyond it by rework simply see no
// reclaims in the deep tail; what matters is that the bound is a
// deterministic function of the workflow and plan, so equal requests
// sample equal schedules and stay cacheable.  The schedule's size
// bound and the downtime's resolution are checked over the whole
// horizon, although a run samples only as far as its makespan.
func spotHorizon(wf *dag.Workflow, bw units.Bandwidth) units.Duration {
	transfer := units.Duration(float64(wf.TotalFileBytes()) / bw.BytesPerSecond())
	return 2*(wf.TotalRuntime()+transfer) + units.Duration(units.SecondsPerHour)
}

// DefaultPlan returns the paper's baseline setup: regular data
// management, full parallelism, on-demand billing, 10 Mbps, Amazon 2008
// rates.
func DefaultPlan() Plan {
	return Plan{
		Mode:      datamgmt.Regular,
		Billing:   OnDemand,
		Bandwidth: units.Mbps(10),
		Pricing:   cost.Amazon2008(),
	}
}

// Canonical returns the plan with its zero-value defaults filled in:
// the form two plans must be reduced to before being compared or used
// as a cache key, since a zero Bandwidth and an explicit 10 Mbps
// describe the same run.
func (p Plan) Canonical() Plan { return p.normalized() }

// normalized fills zero-value defaults.
func (p Plan) normalized() Plan {
	if p.Bandwidth == 0 {
		p.Bandwidth = units.Mbps(10)
	}
	if p.Pricing == (cost.Pricing{}) {
		p.Pricing = cost.Amazon2008()
	}
	p.Policies = p.Policies.Canonical()
	return p
}

// Validate rejects inconsistent plans.
func (p Plan) Validate() error {
	if p.Processors < 0 {
		return fmt.Errorf("core: negative processor count %d", p.Processors)
	}
	if p.Bandwidth < 0 {
		return fmt.Errorf("core: negative bandwidth %v", p.Bandwidth)
	}
	switch p.Billing {
	case Provisioned, OnDemand:
	default:
		return fmt.Errorf("core: unknown billing model %d", p.Billing)
	}
	switch p.Mode {
	case datamgmt.RemoteIO, datamgmt.Regular, datamgmt.Cleanup:
	default:
		return fmt.Errorf("core: unknown data-management mode %d", p.Mode)
	}
	if p.Spot.Enabled() {
		if err := p.Spot.Validate(); err != nil {
			return err
		}
		if len(p.Preemptions) > 0 {
			return fmt.Errorf("core: plan sets both a declarative Spot scenario and explicit Preemptions; use one")
		}
	}
	if err := p.Policies.Validate(); err != nil {
		return err
	}
	return p.normalized().Pricing.Validate()
}

// Result pairs the measured metrics of a run with its billed cost.
type Result struct {
	Plan    Plan
	Metrics exec.Metrics
	Cost    cost.Breakdown
}

// Run executes wf under the plan and prices the outcome.
func Run(wf *dag.Workflow, plan Plan) (Result, error) {
	return RunContext(context.Background(), wf, plan)
}

// RunContext is Run with cooperative cancellation, for sweeps that must
// abort cleanly mid-grid.
func RunContext(ctx context.Context, wf *dag.Workflow, plan Plan) (Result, error) {
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	p := plan.normalized()
	resolved, err := p.Policies.Resolve()
	if err != nil {
		return Result{}, err
	}
	// The pool-sizing policy fixes the reliable/spot split before the
	// revocation schedule is sampled: the spot sub-pool's size decides
	// how many instances draw reclaim events.
	procs := p.Processors
	if procs == 0 {
		procs = wf.MaxParallelism()
	}
	spotActive := len(p.Preemptions) > 0 || (p.Spot.Enabled() && p.Spot.RatePerHour > 0)
	onDemand := resolved.Sizing.Reliable(procs, p.Spot.OnDemand, spotActive)
	if onDemand < 0 || onDemand > procs {
		return Result{}, fmt.Errorf("core: pool-sizing policy %q sized the reliable sub-pool to %d of %d processors", p.Policies.Sizing, onDemand, procs)
	}
	var market exec.SpotMarket
	if p.Spot.RatePerHour > 0 {
		// The runner samples the declarative scenario's per-instance
		// reclaims, one instance per processor of the revocable spot
		// sub-pool, over the workflow's spot horizon.
		if procs-onDemand < 1 {
			return Result{}, fmt.Errorf("core: spot plan leaves no revocable capacity in a %d-processor fleet with %d on demand", procs, onDemand)
		}
		market = exec.SpotMarket{
			RatePerHour: p.Spot.RatePerHour,
			Warning:     p.Spot.Warning,
			Downtime:    p.Spot.Downtime,
			Seed:        p.Spot.Seed,
			Horizon:     spotHorizon(wf, p.Bandwidth),
		}
	}
	m, err := exec.RunContext(ctx, wf, exec.Config{
		Mode:               p.Mode,
		Processors:         p.Processors,
		Bandwidth:          p.Bandwidth,
		RecordCurve:        p.RecordCurve,
		VMStartup:          p.VMStartup,
		Outages:            p.Outages,
		Policy:             p.Policy,
		FailureProb:        p.FailureProb,
		FailureSeed:        p.FailureSeed,
		Preemptions:        p.Preemptions,
		Recovery:           p.Recovery,
		OnDemandProcessors: onDemand,
		Policies:           p.Policies,
		Spot:               market,
		Recorder:           p.Recorder,
	})
	if err != nil {
		return Result{}, err
	}
	var b cost.Breakdown
	switch {
	case p.Spot.Enabled() && p.Billing == Provisioned:
		b = p.Spot.market().ProvisionedMixed(p.Pricing, m)
	case p.Spot.Enabled():
		b = p.Spot.market().OnDemandMixed(p.Pricing, m)
	case p.Billing == Provisioned:
		b = p.Pricing.Provisioned(m)
	default:
		b = p.Pricing.OnDemand(m)
	}
	return Result{Plan: p, Metrics: m, Cost: b}, nil
}

// SweepPoint is one row of a provisioning sweep: the run at one pool
// size, plus the storage cost the same run would have had with dynamic
// cleanup (Figs. 4-6 plot both storage series).
type SweepPoint struct {
	Processors         int
	Result             Result
	StorageCostCleanup units.Money
}

// ProvisioningSweep reproduces Question 1: run wf on each pool size with
// provisioned billing, reporting cost components and execution time.
// The plan's Mode is forced to Regular (the sweep reports cleanup
// storage alongside, as the paper's figures do).
//
// Grid points run concurrently on a GOMAXPROCS-sized worker pool; each
// point is a deterministic simulation, so the returned slice is
// identical to what a serial loop produces.
func ProvisioningSweep(wf *dag.Workflow, processors []int, plan Plan) ([]SweepPoint, error) {
	return ProvisioningSweepContext(context.Background(), wf, processors, plan)
}

// ProvisioningSweepContext is ProvisioningSweep with cooperative
// cancellation across the whole grid.
func ProvisioningSweepContext(ctx context.Context, wf *dag.Workflow, processors []int, plan Plan) ([]SweepPoint, error) {
	if len(processors) == 0 {
		return nil, fmt.Errorf("core: empty processor list")
	}
	for _, n := range processors {
		if n <= 0 {
			return nil, fmt.Errorf("core: invalid processor count %d in sweep", n)
		}
	}
	return sweep.Map(ctx, 0, processors, func(ctx context.Context, _ int, n int) (SweepPoint, error) {
		p := plan.normalized()
		p.Mode = datamgmt.Regular
		p.Processors = n
		p.Billing = Provisioned
		res, err := RunContext(ctx, wf, p)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("core: sweep at %d processors: %w", n, err)
		}
		pc := p
		pc.Mode = datamgmt.Cleanup
		resC, err := RunContext(ctx, wf, pc)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("core: cleanup run at %d processors: %w", n, err)
		}
		return SweepPoint{
			Processors:         n,
			Result:             res,
			StorageCostCleanup: resC.Cost.Storage,
		}, nil
	})
}

// GeometricProcessors returns the paper's pool sizes: 1,2,4,...,128.
func GeometricProcessors() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128} }

// CompareModes reproduces Question 2a: run wf once per data-management
// mode with on-demand billing and full parallelism.  The three runs
// execute concurrently.
func CompareModes(wf *dag.Workflow, plan Plan) (map[datamgmt.Mode]Result, error) {
	return CompareModesContext(context.Background(), wf, plan)
}

// CompareModesContext is CompareModes with cooperative cancellation.
func CompareModesContext(ctx context.Context, wf *dag.Workflow, plan Plan) (map[datamgmt.Mode]Result, error) {
	modes := datamgmt.Modes()
	results, err := sweep.Map(ctx, 0, modes, func(ctx context.Context, _ int, mode datamgmt.Mode) (Result, error) {
		p := plan.normalized()
		p.Mode = mode
		p.Billing = OnDemand
		p.Processors = 0
		res, err := RunContext(ctx, wf, p)
		if err != nil {
			return Result{}, fmt.Errorf("core: mode %v: %w", mode, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[datamgmt.Mode]Result, len(modes))
	for i, mode := range modes {
		out[mode] = results[i]
	}
	return out, nil
}

// CCRPoint is one row of a CCR sensitivity sweep.
type CCRPoint struct {
	CCR                float64
	Result             Result
	StorageCostCleanup units.Money
}

// CCRSweep reproduces Fig. 11: rescale wf's file sizes to each target
// CCR (at the plan's bandwidth) and run under the plan.  The paper uses
// the 1-degree workflow on 8 provisioned processors.  Grid points run
// concurrently; each point rescales its own deep copy of wf.
func CCRSweep(wf *dag.Workflow, ccrs []float64, plan Plan) ([]CCRPoint, error) {
	return CCRSweepContext(context.Background(), wf, ccrs, plan)
}

// CCRSweepContext is CCRSweep with cooperative cancellation.
func CCRSweepContext(ctx context.Context, wf *dag.Workflow, ccrs []float64, plan Plan) ([]CCRPoint, error) {
	if len(ccrs) == 0 {
		return nil, fmt.Errorf("core: empty CCR list")
	}
	p := plan.normalized()
	return sweep.Map(ctx, 0, ccrs, func(ctx context.Context, _ int, ccr float64) (CCRPoint, error) {
		scaled, err := wf.RescaleCCR(ccr, p.Bandwidth)
		if err != nil {
			return CCRPoint{}, fmt.Errorf("core: ccr %v: %w", ccr, err)
		}
		pr := p
		pr.Mode = datamgmt.Regular
		res, err := RunContext(ctx, scaled, pr)
		if err != nil {
			return CCRPoint{}, fmt.Errorf("core: ccr %v: %w", ccr, err)
		}
		pc := p
		pc.Mode = datamgmt.Cleanup
		resC, err := RunContext(ctx, scaled, pc)
		if err != nil {
			return CCRPoint{}, fmt.Errorf("core: ccr %v cleanup: %w", ccr, err)
		}
		return CCRPoint{
			CCR:                ccr,
			Result:             res,
			StorageCostCleanup: resC.Cost.Storage,
		}, nil
	})
}
