// Package repro is a Go reproduction of "The Cost of Doing Science on
// the Cloud: The Montage Example" (Deelman, Singh, Livny, Berriman,
// Good; SC 2008).
//
// The library simulates the Montage astronomy workflow on an Amazon
// EC2/S3-like cloud and prices each run under the 2008 Amazon fee
// schedule, reproducing every table and figure of the paper's
// evaluation.  This package is the public facade over the internal
// packages; the typical flow is
//
//	wf, err := repro.Generate(repro.OneDegree())
//	res, err := repro.Run(wf, repro.DefaultPlan())
//	fmt.Println(res.Cost.Total())
//
// Sweeps and the paper's archive-economics analyses are exposed as well;
// the per-figure harness lives in internal/experiments and is runnable
// via the montagesim command or `go test -bench .`.
//
// # The sweep engine
//
// Every parameter scan (ProvisioningSweep, CompareModes, CCRSweep, and
// each figure in internal/experiments) runs its grid points concurrently
// on a worker pool sized by GOMAXPROCS.  Each point is a deterministic
// simulation and collection is order-stable, so a parallel sweep returns
// results byte-identical to a serial loop -- parallelism never changes a
// paper number.  The Context variants (RunContext,
// ProvisioningSweepContext, ...) add cooperative cancellation: cancel
// the context and the grid drains within a few simulated events.
// GenerateCached memoizes workflow generation per spec; the returned
// workflow is shared and must be treated as read-only (every simulation
// path already does).
//
// # The wire layer
//
// The versioned wire layer lives in package repro/wire: the declarative
// v2 Scenario document with its any-axis sweep grids, the RunDocumentV2
// result document, and the canonical cache key.  cmd/reprosrv serves it
// over HTTP (with result caching and request coalescing, possible
// precisely because every simulation is a deterministic function of its
// spec and plan), and montagesim -run/-scenario -json emit the identical
// documents for offline diffing.
package repro

import (
	"context"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/units"
)

// Core value types.
type (
	// Bytes is a size in bytes (decimal SI conventions, 1 GB = 1e9 B).
	Bytes = units.Bytes
	// Duration is a simulated time span in seconds.
	Duration = units.Duration
	// Money is an amount in US dollars.
	Money = units.Money
	// Bandwidth is a transfer rate in bytes per second.
	Bandwidth = units.Bandwidth
)

// Mbps constructs a Bandwidth from megabits per second.
func Mbps(v float64) Bandwidth { return units.Mbps(v) }

// Workflow modeling.
type (
	// Workflow is a task/file DAG with runtimes and sizes attached.
	Workflow = dag.Workflow
	// Spec parameterizes a Montage workflow.
	Spec = montage.Spec
)

// The paper's three workloads.
var (
	// OneDegree is the 203-task 1-degree-square mosaic workflow.
	OneDegree = montage.OneDegree
	// TwoDegree is the 731-task 2-degree-square workflow.
	TwoDegree = montage.TwoDegree
	// FourDegree is the 3,027-task 4-degree-square workflow.
	FourDegree = montage.FourDegree
	// FromDegrees builds a spec for an arbitrary mosaic size.
	FromDegrees = montage.FromDegrees
)

// Generate builds, calibrates and finalizes a Montage workflow.
func Generate(spec Spec) (*Workflow, error) { return montage.Generate(spec) }

// GenerateCached is Generate memoized through a process-wide cache:
// repeated requests for the same spec share one workflow.  The result
// must be treated as read-only.
func GenerateCached(spec Spec) (*Workflow, error) { return montage.Cached(spec) }

// Execution and billing plans.
type (
	// Plan describes how a request executes and how it is billed.
	Plan = core.Plan
	// Result pairs run metrics with the billed cost.
	Result = core.Result
	// Metrics is everything measured during a simulated run.
	Metrics = exec.Metrics
	// Breakdown splits a cost into CPU/storage/transfer components.
	Breakdown = cost.Breakdown
	// Pricing is a cloud fee schedule.
	Pricing = cost.Pricing
	// Mode selects the data-management model.
	Mode = datamgmt.Mode
	// Billing selects provisioned or on-demand CPU charging.
	Billing = core.Billing
	// Preemption is one spot capacity-reclaim event.
	Preemption = exec.Preemption
	// Recovery decides how a preempted task resumes (from scratch, or
	// checkpoint/restart).
	Recovery = exec.Recovery
	// Spot is a spot-market model: discounted CPU, revocable capacity.
	Spot = cost.Spot
	// SpotPlan declaratively describes a seeded spot scenario (market
	// knobs plus a mixed-fleet split); the runner samples its
	// per-instance reclaim events once the pool size is known.
	SpotPlan = core.SpotPlan
)

// SpotSchedule samples a deterministic spot revocation schedule: the
// same seed always reproduces the same reclaims, keeping spot runs
// cacheable.
func SpotSchedule(horizon Duration, procs int, ratePerHour float64, warning, down Duration, seed int64) ([]Preemption, error) {
	return exec.SpotSchedule(horizon, procs, ratePerHour, warning, down, seed)
}

// SpotScheduleInstances samples a deterministic per-instance spot
// revocation schedule: every event reclaims exactly one processor, with
// heterogeneous warning leads, each instance an independent Poisson
// stream.  The same seed always reproduces the same reclaims.
func SpotScheduleInstances(horizon Duration, procs int, ratePerHour float64, warning, down Duration, seed int64) ([]Preemption, error) {
	return exec.SpotScheduleInstances(horizon, procs, ratePerHour, warning, down, seed)
}

// Data-management modes (§3 of the paper).
const (
	RemoteIO = datamgmt.RemoteIO
	Regular  = datamgmt.Regular
	Cleanup  = datamgmt.Cleanup
)

// Billing models.
const (
	Provisioned = core.Provisioned
	OnDemand    = core.OnDemand
)

// DefaultPlan returns the paper's baseline plan (regular mode, full
// parallelism, on-demand billing, 10 Mbps, Amazon 2008 rates).
func DefaultPlan() Plan { return core.DefaultPlan() }

// Amazon2008 returns the fee schedule the paper used.
func Amazon2008() Pricing { return cost.Amazon2008() }

// Run executes a workflow under a plan and prices the outcome.
func Run(wf *Workflow, plan Plan) (Result, error) { return core.Run(wf, plan) }

// RunContext is Run with cooperative cancellation.
func RunContext(ctx context.Context, wf *Workflow, plan Plan) (Result, error) {
	return core.RunContext(ctx, wf, plan)
}

// Sweeps.
type (
	// SweepPoint is one row of a provisioning sweep.
	SweepPoint = core.SweepPoint
	// CCRPoint is one row of a CCR sensitivity sweep.
	CCRPoint = core.CCRPoint
)

// ProvisioningSweep reproduces Question 1: provisioned pools of each
// size, reporting costs and execution time.  Grid points run
// concurrently; results are identical to a serial loop.
func ProvisioningSweep(wf *Workflow, processors []int, plan Plan) ([]SweepPoint, error) {
	return core.ProvisioningSweep(wf, processors, plan)
}

// ProvisioningSweepContext is ProvisioningSweep with cooperative
// cancellation.
func ProvisioningSweepContext(ctx context.Context, wf *Workflow, processors []int, plan Plan) ([]SweepPoint, error) {
	return core.ProvisioningSweepContext(ctx, wf, processors, plan)
}

// GeometricProcessors returns the paper's pool sizes 1, 2, 4, ..., 128.
func GeometricProcessors() []int { return core.GeometricProcessors() }

// CompareModes reproduces Question 2a: one on-demand run per
// data-management mode, all three concurrently.
func CompareModes(wf *Workflow, plan Plan) (map[Mode]Result, error) {
	return core.CompareModes(wf, plan)
}

// CompareModesContext is CompareModes with cooperative cancellation.
func CompareModesContext(ctx context.Context, wf *Workflow, plan Plan) (map[Mode]Result, error) {
	return core.CompareModesContext(ctx, wf, plan)
}

// CCRSweep reproduces Fig. 11: runs at rescaled communication-to-
// computation ratios, concurrently across the grid.
func CCRSweep(wf *Workflow, ccrs []float64, plan Plan) ([]CCRPoint, error) {
	return core.CCRSweep(wf, ccrs, plan)
}

// CCRSweepContext is CCRSweep with cooperative cancellation.
func CCRSweepContext(ctx context.Context, wf *Workflow, ccrs []float64, plan Plan) ([]CCRPoint, error) {
	return core.CCRSweepContext(ctx, wf, ccrs, plan)
}

// Archive economics (Questions 2b and 3).
type (
	// BreakEven is the archive break-even analysis.
	BreakEven = archive.BreakEven
	// StorageHorizon is the store-vs-recompute analysis.
	StorageHorizon = archive.StorageHorizon
	// SkyCampaign is the whole-sky costing.
	SkyCampaign = archive.SkyCampaign
)

// Constants from §6 of the paper.
const (
	// TwoMASSArchiveBytes is the 12 TB size of the 2MASS survey.
	TwoMASSArchiveBytes = archive.TwoMASSArchiveBytes
	// WholeSky4DegMosaics tiles the sky with 4-degree plates.
	WholeSky4DegMosaics = archive.WholeSky4DegMosaics
	// WholeSky6DegMosaics tiles the sky with 6-degree plates.
	WholeSky6DegMosaics = archive.WholeSky6DegMosaics
)

// ComputeBreakEven answers Question 2b for an archive of the given size
// and a measured per-request cost.
func ComputeBreakEven(p Pricing, archiveSize Bytes, requestCost Breakdown) (BreakEven, error) {
	return archive.ComputeBreakEven(p, archiveSize, requestCost)
}

// ComputeStorageHorizon answers Question 3's store-vs-recompute
// question for one generated product.
func ComputeStorageHorizon(p Pricing, productSize Bytes, recomputeCost Money) (StorageHorizon, error) {
	return archive.ComputeStorageHorizon(p, productSize, recomputeCost)
}

// ComputeSkyCampaign prices generating n mosaics at a measured
// per-request cost.
func ComputeSkyCampaign(requestCost Breakdown, n int) (SkyCampaign, error) {
	return archive.ComputeSkyCampaign(requestCost, n)
}
