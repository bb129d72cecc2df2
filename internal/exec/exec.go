// Package exec executes a workflow on the simulated cloud and measures
// everything the paper's figures are built from: execution time, bytes
// transferred in and out, and the storage usage integral.
//
// Execution follows the paper's setup (§3, §5):
//
//   - A single compute resource with a configurable number of processors
//     and an associated storage system of infinite capacity.
//   - A fixed-bandwidth link (10 Mbps in the paper) between the user and
//     the cloud storage; transfers are serialized on it.
//   - In the Regular and Cleanup models, all external inputs are staged
//     in first, then tasks execute (processors are provisioned for this
//     whole window), and the net outputs are staged out at the end, after
//     which all files are deleted from the resource.
//   - In the Remote I/O model there is no resident data: each task stages
//     its inputs in from the user, computes, stages all of its outputs
//     back out, and deletes everything it touched.  Files used by several
//     tasks are transferred multiple times, and intermediate products are
//     transferred out as well -- exactly the behaviours the paper calls
//     out when comparing the models.
//
// A processor is held only while a task computes; the provisioned-mode
// CPU bill (processors x provisioned window) is derived by package cost
// from the metrics reported here.
//
// Every scheduling and recovery decision point is delegated to a named
// policy from package policy (Config.Policies): reliable-slot placement,
// reclaim victim selection and checkpoint spacing.  The zero bundle
// reproduces the historical hard-coded behavior exactly.
//
// The package is split by concern: config.go (run configuration),
// metrics.go (measurements), loop.go (the typed-event loop), events.go
// (data-staging event flows), dispatch.go (processor scheduling) and
// preempt.go (spot reclaims and recovery); this file holds the entry
// points and the runner core.
package exec

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cloudsim"
	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/units"
)

// Run simulates wf under cfg and returns the measured metrics.
func Run(wf *dag.Workflow, cfg Config) (Metrics, error) {
	return RunContext(context.Background(), wf, cfg)
}

// RunContext is Run with cooperative cancellation: the simulation aborts
// between events once ctx is canceled and returns ctx's error.  wf is
// only ever read, so concurrent runs may share one workflow.
func RunContext(ctx context.Context, wf *dag.Workflow, cfg Config) (Metrics, error) {
	if !wf.Finalized() {
		return Metrics{}, fmt.Errorf("exec: workflow %q not finalized", wf.Name)
	}
	switch cfg.Mode {
	case datamgmt.RemoteIO, datamgmt.Regular, datamgmt.Cleanup:
	default:
		return Metrics{}, fmt.Errorf("exec: unknown mode %v", cfg.Mode)
	}
	if cfg.Processors < 0 {
		return Metrics{}, fmt.Errorf("exec: negative processor count %d", cfg.Processors)
	}
	if cfg.VMStartup < 0 {
		return Metrics{}, fmt.Errorf("exec: negative VM startup %v", cfg.VMStartup)
	}
	if err := validateOutages(cfg.Outages); err != nil {
		return Metrics{}, err
	}
	if cfg.Policy < FIFO || cfg.Policy > ShortestFirst {
		return Metrics{}, fmt.Errorf("exec: unknown scheduling policy %d", cfg.Policy)
	}
	if cfg.FailureProb < 0 || cfg.FailureProb >= 1 {
		return Metrics{}, fmt.Errorf("exec: failure probability %v outside [0,1)", cfg.FailureProb)
	}
	if err := cfg.Recovery.validate(); err != nil {
		return Metrics{}, err
	}
	if !(cfg.Spot.RatePerHour >= 0) {
		return Metrics{}, fmt.Errorf("exec: spot rate %v/hour is negative or NaN", cfg.Spot.RatePerHour)
	}
	sampled := cfg.Spot.RatePerHour > 0
	if sampled && len(cfg.Preemptions) > 0 {
		return Metrics{}, fmt.Errorf("exec: config sets both a sampled spot market and explicit Preemptions; use one")
	}
	resolved, err := cfg.Policies.Resolve()
	if err != nil {
		return Metrics{}, fmt.Errorf("exec: %w", err)
	}
	procs := cfg.Processors
	if procs == 0 {
		procs = wf.MaxParallelism()
	}
	if cfg.OnDemandProcessors < 0 {
		return Metrics{}, fmt.Errorf("exec: negative on-demand sub-pool %d", cfg.OnDemandProcessors)
	}
	if cfg.OnDemandProcessors > procs {
		return Metrics{}, fmt.Errorf("exec: on-demand sub-pool %d exceeds the %d-processor fleet", cfg.OnDemandProcessors, procs)
	}
	if (len(cfg.Preemptions) > 0 || sampled) && cfg.OnDemandProcessors == procs {
		return Metrics{}, fmt.Errorf("exec: preemptions scheduled but the %d-processor fleet has no spot capacity", procs)
	}
	if sampled {
		if err := cfg.Spot.validate(procs - cfg.OnDemandProcessors); err != nil {
			return Metrics{}, err
		}
	}
	if err := validatePreemptions(cfg.Preemptions, procs, cfg.OnDemandProcessors); err != nil {
		return Metrics{}, err
	}
	bw := cfg.Bandwidth
	if bw == 0 {
		bw = DefaultBandwidth
	}
	link, err := cloudsim.NewLink(bw)
	if err != nil {
		return Metrics{}, err
	}
	cluster, err := cloudsim.NewFleet(procs, cfg.OnDemandProcessors)
	if err != nil {
		return Metrics{}, err
	}
	r := &runner{
		wf:       wf,
		cfg:      cfg,
		policies: resolved,
		reclaims: cfg.Preemptions,
		link:     link,
		cluster:  cluster,
		trace:    cfg.Recorder,
	}
	r.layoutStorage()
	if cfg.Mode == datamgmt.Cleanup {
		if r.analyzer, err = datamgmt.NewAnalyzer(wf); err != nil {
			return Metrics{}, err
		}
	}
	if cfg.FailureProb > 0 {
		r.failRNG = rand.New(rand.NewSource(cfg.FailureSeed))
	}
	return r.run(ctx)
}

type taskPhase uint8

const (
	phaseWaiting taskPhase = iota // dependencies outstanding
	phaseStaging                  // remote I/O: inputs in flight
	phaseReady                    // waiting for a processor
	phaseRunning                  // computing
	phaseDone                     // completed (remote I/O: outputs may still be in flight)
)

// taskState is one task's execution state.  The preemption bookkeeping
// lives here too: the attempt counter disarms stale completion events,
// banked is the useful work preserved across kills, runStart/runRem
// describe the attempt in flight, interval is its effective checkpoint
// interval (the checkpoint trigger may space each attempt's snapshots
// differently) and onReliable records which sub-pool it occupies.
type taskState struct {
	banked     units.Duration
	runStart   units.Duration
	runRem     units.Duration
	interval   units.Duration
	attempt    uint32
	depsLeft   int32
	span       int32 // schedule index of the attempt in flight, -1 for none
	phase      taskPhase
	onReliable bool
}

type runner struct {
	wf       *dag.Workflow
	cfg      Config
	policies policy.Resolved

	// The event loop's state (loop.go): the clock, the last sequence
	// number handed out, the pending events, and whether the loop must
	// stop (the run is over or a handler failed).
	now     units.Duration
	seq     uint64
	queue   eventQueue
	stopped bool
	// The reclaim stream: cfg.Preemptions, or the window of a sampled
	// spot market's schedule that holds every reclaim before windowEnd
	// (loop.go).
	reclaims  []Preemption
	windowEnd units.Duration

	storage  *cloudsim.Storage
	link     *cloudsim.Link
	cluster  *cloudsim.Cluster
	analyzer *datamgmt.Analyzer
	// Storage slots (see layoutStorage): task t's staged remote-I/O
	// copies start at remoteBase[t]; its checkpoint image is at
	// ckptBase+t.
	remoteBase []int
	ckptBase   int

	tasks            []taskState  // by task ID
	ready            []dag.TaskID // compute-ready from readyHead on, kept in policy order
	readyHead        int          // dispatched prefix of ready, reused once drained or full
	batch            []dag.TaskID // dispatch's reused batch buffer
	dead             []dag.FileID // cleanup's reused dead-file buffer
	doneTasks        int
	stagedOut        int // remote I/O: tasks whose outputs reached the user
	execEnd          units.Duration
	makespan         units.Duration
	dispatchDeferred bool
	schedule         []TaskSpan
	failRNG          *rand.Rand
	retries          int

	preempted    int
	wasted       float64
	checkpoints  int
	ckptWritten  units.Bytes
	ckptRestored units.Bytes
	// pickVictims' buffers, reused across reclaims.
	cands   []policy.VictimCandidate
	scores  []float64
	perm    []int
	victims []victimChoice

	// trace is the optional flight recorder.  Every record is guarded by
	// a nil check so untraced runs -- the cacheable common case -- pay
	// nothing, and recording never mutates simulation state.
	trace *obs.Recorder

	// prio holds the placement priorities of a mixed fleet: tasks with
	// larger priority claim reliable slots first.  Nil on uniform pools
	// (placement is irrelevant) and under placements that keep the
	// ready-queue order.
	prio []float64
	// capacityAtExecEnd snapshots the cluster's capacity integral when
	// the execution window closes: the utilization denominator.
	// reliableCapAtExecEnd is the reliable sub-pool's share of it.
	capacityAtExecEnd    float64
	reliableCapAtExecEnd float64

	err error
}

// fail records the run's first error and stops the loop after the
// current event.
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.stopped = true
}

// layoutStorage sizes the storage to the run's slots.  The resident
// models keep file f in slot f; remote I/O gives every task a block of
// slots for its staged copies (inputs, then outputs, each in name
// order), because concurrent tasks each hold their own copy of a shared
// file.  Task t's checkpoint image follows in slot ckptBase+t.
func (r *runner) layoutStorage() {
	n := r.wf.NumTasks()
	if r.cfg.Mode == datamgmt.RemoteIO {
		r.remoteBase = make([]int, n)
		for i, t := range r.wf.Tasks() {
			r.remoteBase[i] = r.ckptBase
			r.ckptBase += len(t.Inputs) + len(t.Outputs)
		}
	} else {
		r.ckptBase = r.wf.NumFiles()
	}
	r.storage = cloudsim.NewStorage(r.ckptBase+n, r.cfg.RecordCurve)
}

// ckptSlot is the storage slot of a task's checkpoint image.
func (r *runner) ckptSlot(id dag.TaskID) int { return r.ckptBase + int(id) }

// avail returns the earliest time >= now at which the storage service is
// reachable.
func (r *runner) avail(now units.Duration) units.Duration {
	return nextAvailable(r.cfg.Outages, now)
}

// reserveAvail books a serialized link transfer whose start respects
// both the link FIFO and the outage windows.
func (r *runner) reserveAvail(now units.Duration, size units.Bytes, dir cloudsim.Direction) (units.Duration, units.Duration, error) {
	s := now
	if fa := r.link.FreeAt(); fa > s {
		s = fa
	}
	return r.link.Reserve(r.avail(s), size, dir)
}

func (r *runner) run(ctx context.Context) (Metrics, error) {
	n := r.wf.NumTasks()
	r.tasks = make([]taskState, n)
	for i, t := range r.wf.Tasks() {
		r.tasks[i].depsLeft = int32(len(t.Parents()))
		r.tasks[i].span = -1
	}
	if r.cluster.Reliable() > 0 && r.cluster.Reliable() < r.cluster.Provisioned() {
		bw := r.cfg.Bandwidth
		if bw == 0 {
			bw = DefaultBandwidth
		}
		r.prio = r.policies.Placement.Priorities(r.wf, policy.PlacementContext{Bandwidth: bw})
		if r.prio != nil && len(r.prio) != n {
			return Metrics{}, fmt.Errorf("exec: placement policy %q returned %d priorities for %d tasks",
				r.policies.Placement.Name(), len(r.prio), n)
		}
	}

	// Everything waits for the virtual machines to boot; the provisioned
	// pool is billed from launch, so the delay lands inside ExecTime.
	// Capacity reclaims fire on the absolute simulation clock, like
	// outages: the loop streams them, ranked right after this event.
	r.post(r.cfg.VMStartup, evStart, -1, 0)

	if err := r.loop(ctx); err != nil {
		return Metrics{}, fmt.Errorf("exec: %w", err)
	}
	if r.err != nil {
		return Metrics{}, r.err
	}
	if r.doneTasks != n {
		return Metrics{}, fmt.Errorf("exec: deadlock: %d of %d tasks completed", r.doneTasks, n)
	}

	m := Metrics{
		Workflow:                    r.wf.Name,
		Mode:                        r.cfg.Mode,
		Processors:                  r.cluster.Provisioned(),
		OnDemandProcessors:          r.cluster.Reliable(),
		ExecTime:                    r.execEnd,
		Makespan:                    r.makespan,
		BytesIn:                     r.link.BytesIn(),
		BytesOut:                    r.link.BytesOut(),
		StorageByteSeconds:          r.storage.ByteSeconds(r.makespan),
		PeakStorage:                 r.storage.Peak(),
		CPUSeconds:                  r.cluster.BusyProcSeconds(r.makespan),
		SpotCPUSeconds:              r.cluster.SpotBusyProcSeconds(r.makespan),
		CapacityProcSeconds:         r.capacityAtExecEnd,
		ReliableCapacityProcSeconds: r.reliableCapAtExecEnd,
		SpotCapacityProcSeconds:     r.capacityAtExecEnd - r.reliableCapAtExecEnd,
		TasksRun:                    r.doneTasks,
		Retries:                     r.retries,
		Preempted:                   r.preempted,
		WastedCPUSeconds:            r.wasted,
		Checkpoints:                 r.checkpoints,
		CheckpointBytesWritten:      r.ckptWritten,
		CheckpointBytesRestored:     r.ckptRestored,
		Curve:                       r.storage.Curve(),
		Schedule:                    r.schedule,
	}
	m.Utilization = utilization(m.CPUSeconds, m.CapacityProcSeconds)
	// Without failures, scheduled reclaims or checkpoint overhead, the
	// consumed CPU must equal the workflow's total runtime exactly; a
	// mismatch means a double-booked processor.
	if r.failRNG == nil && !r.cfg.Recovery.Checkpoint && !r.reclaimsScheduled() {
		want := r.wf.TotalRuntime().Seconds()
		if diff := m.CPUSeconds - want; diff > 1e-6*want+1e-6 || diff < -(1e-6*want+1e-6) {
			return Metrics{}, fmt.Errorf("exec: CPU accounting mismatch: cluster %v vs workflow %v", m.CPUSeconds, want)
		}
		// Report the exact value so costs reproduce the paper's figures
		// without float drift.  With no revocations the capacity integral
		// is exactly the static pool over the window, so report that
		// product too rather than its float accumulation -- and rescale
		// the spot share by the same snap, or mixed billing would see
		// exact-minus-accumulated epsilon noise as reliable CPU.
		if m.CPUSeconds > 0 {
			m.SpotCPUSeconds *= want / m.CPUSeconds
		}
		m.CPUSeconds = want
		m.CapacityProcSeconds = float64(m.Processors) * m.ExecTime.Seconds()
		m.ReliableCapacityProcSeconds = float64(m.OnDemandProcessors) * m.ExecTime.Seconds()
		m.SpotCapacityProcSeconds = m.CapacityProcSeconds - m.ReliableCapacityProcSeconds
		m.Utilization = utilization(want, m.CapacityProcSeconds)
	}
	return m, nil
}
