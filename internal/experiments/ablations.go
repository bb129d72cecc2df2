package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/units"
)

// The ablation experiments (the ablation-* entries of Registry) probe
// the paper's design choices: its per-second billing normalization, and
// the provisioned vs. on-demand charging contrast it highlights with the
// 4-degree $13.92-vs-$8.89 example.

// GranularityRow compares per-second and per-hour CPU billing for one
// pool size.
type GranularityRow struct {
	Processors int
	PerSecond  units.Money
	PerHour    units.Money
}

// AblationGranularityResult is the billing-granularity ablation over the
// Question-1 sweep of the 1-degree workflow.
type AblationGranularityResult struct {
	Spec montage.Spec
	Rows []GranularityRow
}

// AblationGranularity re-prices the Fig. 4 sweep with whole-hour billing
// (what 2008 EC2 actually charged) against the paper's per-second
// normalization.
func AblationGranularity(ctx context.Context) (AblationGranularityResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationGranularityResult{}, err
	}
	points, err := core.ProvisioningSweepContext(ctx, w, core.GeometricProcessors(), core.DefaultPlan())
	if err != nil {
		return AblationGranularityResult{}, err
	}
	hourly := cost.Amazon2008()
	hourly.Granularity = cost.PerHour
	res := AblationGranularityResult{Spec: spec}
	for _, p := range points {
		res.Rows = append(res.Rows, GranularityRow{
			Processors: p.Processors,
			PerSecond:  p.Result.Cost.Total(),
			PerHour:    hourly.Provisioned(p.Result.Metrics).Total(),
		})
	}
	return res, nil
}

// Table renders the granularity ablation.
func (r AblationGranularityResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: billing granularity on the %s sweep", r.Spec.Name),
		"procs", "total$(per-second)", "total$(per-hour)", "hourly-premium")
	for _, row := range r.Rows {
		premium := 0.0
		if row.PerSecond > 0 {
			premium = float64(row.PerHour/row.PerSecond) - 1
		}
		t.MustAdd(fmt.Sprint(row.Processors),
			report.F(row.PerSecond.Dollars(), 4),
			report.F(row.PerHour.Dollars(), 4),
			fmt.Sprintf("%.0f%%", premium*100),
		)
	}
	return t
}

// StartupRow is one point of the VM-startup ablation.
type StartupRow struct {
	Startup  units.Duration
	ExecTime units.Duration
	Total    units.Money
}

// AblationVMStartupResult quantifies the §8 "startup cost" the paper
// deliberately excluded: booting and configuring the virtual machines
// before the workflow can run.
type AblationVMStartupResult struct {
	Spec  montage.Spec
	Procs int
	Rows  []StartupRow
}

// AblationVMStartup reruns the 1-degree workflow on a 16-processor
// provisioned pool with increasing VM boot windows.
func AblationVMStartup(ctx context.Context) (AblationVMStartupResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationVMStartupResult{}, err
	}
	res := AblationVMStartupResult{Spec: spec, Procs: 16}
	res.Rows, err = Sweep[units.Duration, StartupRow]{
		Name:   "ablation-startup",
		Points: []units.Duration{0, 60, 300, 900},
		Run: func(ctx context.Context, startup units.Duration) (StartupRow, error) {
			plan := core.DefaultPlan()
			plan.Billing = core.Provisioned
			plan.Processors = res.Procs
			plan.VMStartup = startup
			r, err := core.RunContext(ctx, w, plan)
			if err != nil {
				return StartupRow{}, err
			}
			return StartupRow{
				Startup:  startup,
				ExecTime: r.Metrics.ExecTime,
				Total:    r.Cost.Total(),
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return AblationVMStartupResult{}, err
	}
	return res, nil
}

// Table renders the startup ablation.
func (r AblationVMStartupResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: VM startup on %s (%d provisioned procs)", r.Spec.Name, r.Procs),
		"startup", "exec-time", "total$")
	for _, row := range r.Rows {
		t.MustAdd(row.Startup.String(), row.ExecTime.String(), report.F(row.Total.Dollars(), 4))
	}
	return t
}

// OutageRow is one point of the availability ablation.
type OutageRow struct {
	OutageLen units.Duration
	ExecTime  units.Duration
	Makespan  units.Duration
	Total     units.Money
}

// AblationOutageResult quantifies §8's reliability concern: "when the
// system goes down, as it did twice in the first 7 months of 2008, the
// possible impact on the applications can be significant."
type AblationOutageResult struct {
	Spec  montage.Spec
	Procs int
	Rows  []OutageRow
}

// AblationOutage injects a storage outage mid-run (opening 10 minutes
// into the 1-degree workflow on 16 provisioned processors) of increasing
// length and reports the delay and cost impact.
func AblationOutage(ctx context.Context) (AblationOutageResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationOutageResult{}, err
	}
	res := AblationOutageResult{Spec: spec, Procs: 16}
	res.Rows, err = Sweep[units.Duration, OutageRow]{
		Name:   "ablation-outage",
		Points: []units.Duration{0, 300, 1800, 7200},
		Run: func(ctx context.Context, length units.Duration) (OutageRow, error) {
			plan := core.DefaultPlan()
			plan.Billing = core.Provisioned
			plan.Processors = res.Procs
			if length > 0 {
				plan.Outages = []exec.Outage{{Start: 600, End: 600 + length}}
			}
			r, err := core.RunContext(ctx, w, plan)
			if err != nil {
				return OutageRow{}, err
			}
			return OutageRow{
				OutageLen: length,
				ExecTime:  r.Metrics.ExecTime,
				Makespan:  r.Metrics.Makespan,
				Total:     r.Cost.Total(),
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return AblationOutageResult{}, err
	}
	return res, nil
}

// Table renders the outage ablation.
func (r AblationOutageResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: mid-run storage outage on %s (%d provisioned procs)", r.Spec.Name, r.Procs),
		"outage", "exec-time", "makespan", "total$")
	for _, row := range r.Rows {
		t.MustAdd(row.OutageLen.String(), row.ExecTime.String(), row.Makespan.String(),
			report.F(row.Total.Dollars(), 4))
	}
	return t
}

// SchedulerRow is one policy's outcome at one pool size.
type SchedulerRow struct {
	Processors int
	Policy     exec.Policy
	ExecTime   units.Duration
	Total      units.Money
}

// AblationSchedulerResult compares ready-queue policies of the list
// scheduler on a scarce pool, where dispatch order matters.
type AblationSchedulerResult struct {
	Spec montage.Spec
	Rows []SchedulerRow
}

// AblationScheduler runs the 1-degree workflow at several pool sizes
// under FIFO, longest-first and shortest-first dispatch.  The 3x3 grid
// runs concurrently in row-major order.
func AblationScheduler(ctx context.Context) (AblationSchedulerResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationSchedulerResult{}, err
	}
	type cell struct {
		procs  int
		policy exec.Policy
	}
	var grid []cell
	for _, procs := range []int{4, 8, 16} {
		for _, pol := range []exec.Policy{exec.FIFO, exec.LongestFirst, exec.ShortestFirst} {
			grid = append(grid, cell{procs, pol})
		}
	}
	res := AblationSchedulerResult{Spec: spec}
	res.Rows, err = Sweep[cell, SchedulerRow]{
		Name:   "ablation-scheduler",
		Points: grid,
		Run: func(ctx context.Context, c cell) (SchedulerRow, error) {
			plan := core.DefaultPlan()
			plan.Billing = core.Provisioned
			plan.Processors = c.procs
			plan.Policy = c.policy
			r, err := core.RunContext(ctx, w, plan)
			if err != nil {
				return SchedulerRow{}, err
			}
			return SchedulerRow{
				Processors: c.procs,
				Policy:     c.policy,
				ExecTime:   r.Metrics.ExecTime,
				Total:      r.Cost.Total(),
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return AblationSchedulerResult{}, err
	}
	return res, nil
}

// Table renders the scheduler ablation.
func (r AblationSchedulerResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: list-scheduler policy on %s", r.Spec.Name),
		"procs", "policy", "exec-time", "total$")
	for _, row := range r.Rows {
		t.MustAdd(fmt.Sprint(row.Processors), row.Policy.String(),
			row.ExecTime.String(), report.F(row.Total.Dollars(), 4))
	}
	return t
}

// ReliabilityRow is one failure-rate point.
type ReliabilityRow struct {
	FailureProb float64
	Retries     int
	ExecTime    units.Duration
	CPUCost     units.Money
	Total       units.Money
}

// AblationReliabilityResult quantifies §8's reliability concern on the
// compute side: flaky tasks are retried and every burned attempt is
// billed.
type AblationReliabilityResult struct {
	Spec  montage.Spec
	Procs int
	Rows  []ReliabilityRow
}

// AblationReliability sweeps the per-attempt failure probability on the
// 1-degree workflow (16 provisioned processors).  Each grid point owns
// its own seeded RNG, so concurrent points sample identically to serial
// ones.
func AblationReliability(ctx context.Context) (AblationReliabilityResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationReliabilityResult{}, err
	}
	res := AblationReliabilityResult{Spec: spec, Procs: 16}
	res.Rows, err = Sweep[float64, ReliabilityRow]{
		Name:   "ablation-reliability",
		Points: []float64{0, 0.01, 0.05, 0.10, 0.25},
		Run: func(ctx context.Context, p float64) (ReliabilityRow, error) {
			plan := core.DefaultPlan()
			plan.Billing = core.Provisioned
			plan.Processors = res.Procs
			plan.FailureProb = p
			plan.FailureSeed = 11
			r, err := core.RunContext(ctx, w, plan)
			if err != nil {
				return ReliabilityRow{}, err
			}
			return ReliabilityRow{
				FailureProb: p,
				Retries:     r.Metrics.Retries,
				ExecTime:    r.Metrics.ExecTime,
				CPUCost:     r.Cost.CPU,
				Total:       r.Cost.Total(),
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return AblationReliabilityResult{}, err
	}
	return res, nil
}

// Table renders the reliability ablation.
func (r AblationReliabilityResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: task failure rate on %s (%d provisioned procs)", r.Spec.Name, r.Procs),
		"failure-prob", "retries", "exec-time", "cpu$", "total$")
	for _, row := range r.Rows {
		t.MustAdd(report.F(row.FailureProb, 2), fmt.Sprint(row.Retries),
			row.ExecTime.String(), report.F(row.CPUCost.Dollars(), 4),
			report.F(row.Total.Dollars(), 4))
	}
	return t
}

// ClusteringRow is one clustering factor's outcome.
type ClusteringRow struct {
	Factor    int
	Tasks     int
	ExecTime  units.Duration
	PerSecond units.Money
	PerHour   units.Money
}

// AblationClusteringResult measures Pegasus-style horizontal task
// clustering on a provisioned pool under both billing granularities.
// Clustering conserves CPU work, so per-second costs barely move, but
// coarser tasks lengthen the schedule and shift the hourly bill.
type AblationClusteringResult struct {
	Spec  montage.Spec
	Procs int
	Rows  []ClusteringRow
}

// AblationClustering clusters the 1-degree workflow at factors 1..16 and
// runs each variant on 16 provisioned processors.  Each grid point
// derives its own clustered copy, so the shared base workflow stays
// untouched.
func AblationClustering(ctx context.Context) (AblationClusteringResult, error) {
	spec := montage.OneDegree()
	w, err := generate(spec)
	if err != nil {
		return AblationClusteringResult{}, err
	}
	hourly := cost.Amazon2008()
	hourly.Granularity = cost.PerHour
	res := AblationClusteringResult{Spec: spec, Procs: 16}
	res.Rows, err = Sweep[int, ClusteringRow]{
		Name:   "ablation-clustering",
		Points: []int{1, 2, 4, 8, 16},
		Run: func(ctx context.Context, factor int) (ClusteringRow, error) {
			cw, err := cluster.Horizontal(w, factor)
			if err != nil {
				return ClusteringRow{}, err
			}
			plan := core.DefaultPlan()
			plan.Billing = core.Provisioned
			plan.Processors = res.Procs
			r, err := core.RunContext(ctx, cw, plan)
			if err != nil {
				return ClusteringRow{}, err
			}
			return ClusteringRow{
				Factor:    factor,
				Tasks:     cw.NumTasks(),
				ExecTime:  r.Metrics.ExecTime,
				PerSecond: r.Cost.Total(),
				PerHour:   hourly.Provisioned(r.Metrics).Total(),
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return AblationClusteringResult{}, err
	}
	return res, nil
}

// Table renders the clustering ablation.
func (r AblationClusteringResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: horizontal clustering on %s (%d provisioned procs)", r.Spec.Name, r.Procs),
		"factor", "tasks", "exec-time", "total$(per-second)", "total$(per-hour)")
	for _, row := range r.Rows {
		t.MustAdd(fmt.Sprint(row.Factor), fmt.Sprint(row.Tasks), row.ExecTime.String(),
			report.F(row.PerSecond.Dollars(), 4), report.F(row.PerHour.Dollars(), 4))
	}
	return t
}

// PlanComparisonRow contrasts the two charging plans for one workflow.
type PlanComparisonRow struct {
	Workflow    string
	Provisioned units.Money // 128 processors held for the whole run
	OnDemand    units.Money // CPU charged per second used
	Utilization float64     // of the provisioned pool
}

// PlanComparisonResult is the provisioned-vs-on-demand ablation.
type PlanComparisonResult struct {
	Processors int
	Rows       []PlanComparisonRow
}

// AblationPlanComparison reproduces the paper's §6 comparison: "the cost
// of running the 4 degree square Montage workflow on 128 processors is
// $13.92 in the provisioned case, whereas the workflow which is charged
// only for the resources used is only $8.89."
func AblationPlanComparison(ctx context.Context) (PlanComparisonResult, error) {
	const procs = 128
	res := PlanComparisonResult{Processors: procs}
	rows, err := Sweep[montage.Spec, PlanComparisonRow]{
		Name:   "ablation-plan",
		Points: montage.Presets(),
		Run: func(ctx context.Context, spec montage.Spec) (PlanComparisonRow, error) {
			w, err := generate(spec)
			if err != nil {
				return PlanComparisonRow{}, err
			}
			prov := core.DefaultPlan()
			prov.Billing = core.Provisioned
			prov.Processors = procs
			pr, err := core.RunContext(ctx, w, prov)
			if err != nil {
				return PlanComparisonRow{}, err
			}
			od, err := core.RunContext(ctx, w, core.DefaultPlan())
			if err != nil {
				return PlanComparisonRow{}, err
			}
			return PlanComparisonRow{
				Workflow:    spec.Name,
				Provisioned: pr.Cost.Total(),
				OnDemand:    od.Cost.Total(),
				Utilization: pr.Metrics.Utilization,
			}, nil
		},
	}.Do(ctx)
	if err != nil {
		return PlanComparisonResult{}, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the plan comparison.
func (r PlanComparisonResult) Table() *report.Table {
	t := report.New(
		fmt.Sprintf("Ablation: provisioned (%d procs) vs on-demand charging", r.Processors),
		"workflow", "provisioned$", "on-demand$", "pool-utilization")
	for _, row := range r.Rows {
		t.MustAdd(row.Workflow,
			report.F(row.Provisioned.Dollars(), 2),
			report.F(row.OnDemand.Dollars(), 2),
			report.F(row.Utilization, 3),
		)
	}
	return t
}
