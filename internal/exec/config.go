package exec

// Run configuration: the knobs of one simulated run, the ready-queue
// ordering policy, and the storage-outage windows.

import (
	"fmt"

	"repro/internal/datamgmt"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/units"
)

// Config parameterizes one simulated run.
type Config struct {
	// Mode selects the data-management model.
	Mode datamgmt.Mode
	// Processors is the size of the provisioned pool; 0 means "enough
	// for the workflow's maximum parallelism", the paper's on-demand
	// setup.
	Processors int
	// Bandwidth of the user<->cloud link; 0 defaults to 10 Mbps.
	Bandwidth units.Bandwidth
	// RecordCurve retains the full storage usage curve in the metrics.
	RecordCurve bool
	// RecordSchedule retains the per-task Gantt trace in the metrics.
	RecordSchedule bool

	// VMStartup models the cost the paper's §8 excludes from the main
	// study: "launching and configuring a virtual machine".  The whole
	// run is delayed by this much, and the provisioned pool is charged
	// for it (VMs bill from launch).  Zero, the paper's assumption, by
	// default.
	VMStartup units.Duration

	// Outages are the storage-unavailability windows of §8's reliability
	// discussion ("when the system goes down, as it did twice in the
	// first 7 months of 2008").  While an outage is open no new task may
	// start and no transfer may begin; work already in flight finishes.
	// Windows must be disjoint and sorted by start time.
	Outages []Outage

	// Policy orders the ready queue when processors are scarce.  The
	// default (FIFO by task ID) matches the paper's GridSim setup; the
	// alternatives exist for the scheduler ablation.
	Policy Policy

	// FailureProb is the per-attempt probability that a task fails and
	// must be retried (a §8 reliability extension; the failed attempt's
	// CPU time is still billed).  Must be in [0, 1); zero, the paper's
	// assumption, disables failures.
	FailureProb float64
	// FailureSeed drives the deterministic failure sampling.
	FailureSeed int64

	// Preemptions are spot capacity-reclaim events (a post-paper
	// extension: Amazon introduced spot instances in 2009).  Each one
	// revokes processors at a scheduled instant, killing the most
	// recently started tasks when idle slots do not cover it.  Events
	// must be sorted by reclaim time; empty reproduces the paper's
	// reliable capacity.  Mutually exclusive with a sampled Spot market.
	Preemptions []Preemption
	// OnDemandProcessors carves a reliable on-demand sub-pool out of the
	// processor pool: a mixed fleet.  These processors can never be
	// revoked, the scheduler places critical-path tasks on them first
	// (per the placement policy), and reclaim victims are confined to
	// the remaining spot sub-pool.  Zero means the whole pool is
	// revocable, reproducing the single-market scenarios.
	OnDemandProcessors int
	// Recovery decides how a preempted task resumes: the zero value
	// re-runs it from scratch, Checkpoint restarts it from its last
	// durable checkpoint.
	Recovery Recovery

	// Policies names the scheduling and recovery policies of the run:
	// which ready task claims a reliable slot (placement), which running
	// task a reclaim kills (victim), when a task snapshots (checkpoint
	// trigger) and how the reliable/spot split is sized (pool sizing --
	// applied by the caller before the pool reaches this package).  The
	// zero value resolves to the historical defaults, reproducing every
	// pre-policy run byte for byte.
	Policies policy.Bundle

	// Spot, when its RatePerHour is positive, is the market the run
	// samples the spot sub-pool's reclaims from, one instance per spot
	// processor: the events of SpotScheduleInstances over Spot.Horizon,
	// drawn window by window as the clock reaches them.  Its rate is
	// also the context of risk-aware checkpoint triggers.  The zero
	// value samples nothing.
	Spot SpotMarket

	// Recorder, when non-nil, captures the run's flight-recorder
	// timeline: every dispatch, start, finish, retry, reclaim, victim
	// choice, checkpoint, restore and pool resize.  It is a pure
	// observer -- a traced run's Metrics are byte-identical to the
	// untraced run's -- and nil (the default) records nothing.
	Recorder *obs.Recorder
}

// Policy selects the ready-queue order of the list scheduler.
type Policy int

const (
	// FIFO runs ready tasks in task-ID order (submission order).
	FIFO Policy = iota
	// LongestFirst runs the longest ready task first (LPT list
	// scheduling, the classic makespan heuristic).
	LongestFirst
	// ShortestFirst runs the shortest ready task first.
	ShortestFirst
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	default:
		return "fifo"
	}
}

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "longest-first", "lpt":
		return LongestFirst, nil
	case "shortest-first", "spt":
		return ShortestFirst, nil
	default:
		return 0, fmt.Errorf("exec: unknown policy %q (want fifo, longest-first or shortest-first)", s)
	}
}

// MarshalText encodes the policy name.
func (p Policy) MarshalText() ([]byte, error) {
	if p < FIFO || p > ShortestFirst {
		return nil, fmt.Errorf("exec: cannot marshal unknown policy %d", int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText decodes a policy name.
func (p *Policy) UnmarshalText(text []byte) error {
	parsed, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Outage is a half-open window [Start, End) during which the storage
// service is unreachable.
type Outage struct {
	Start units.Duration
	End   units.Duration
}

// validateOutages checks ordering and disjointness.
func validateOutages(outages []Outage) error {
	for i, o := range outages {
		if o.End <= o.Start || o.Start < 0 {
			return fmt.Errorf("exec: invalid outage window [%v,%v)", o.Start, o.End)
		}
		if i > 0 && o.Start < outages[i-1].End {
			return fmt.Errorf("exec: outage windows overlap or are unsorted at index %d", i)
		}
	}
	return nil
}

// nextAvailable returns the earliest time >= now outside every outage.
// Windows may be back-to-back (Start == prev.End), so leaving one window
// can land exactly inside the next; the scan must continue until a time
// falls strictly before the next window's start.
func nextAvailable(outages []Outage, now units.Duration) units.Duration {
	for _, o := range outages {
		if now < o.Start {
			return now
		}
		if now < o.End {
			now = o.End
		}
	}
	return now
}

// DefaultBandwidth is the paper's user-to-storage link speed.
var DefaultBandwidth = units.Mbps(10)
