package exec

// Processor scheduling: the ready queue, the greedy dispatcher and the
// life cycle of a single attempt.  The placement policy decides which
// tasks of a dispatch batch claim the reliable sub-pool, and the
// checkpoint trigger decides each attempt's snapshot spacing.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/units"
)

// releaseSlot frees the processor a task's attempt occupies, in the
// sub-pool it was placed on.
func (r *runner) releaseSlot(id dag.TaskID, now units.Duration) error {
	if r.tasks[id].onReliable {
		r.tasks[id].onReliable = false
		return r.cluster.ReleaseReliable(now)
	}
	r.running[id/64] &^= 1 << (id % 64)
	return r.cluster.ReleaseSpot(now)
}

// readyBefore orders the ready queue per the scheduling policy, with
// task ID as the deterministic tie-breaker.
func (r *runner) readyBefore(a, b dag.TaskID) bool {
	ra, rb := r.wf.Task(a).Runtime, r.wf.Task(b).Runtime
	switch r.cfg.Policy {
	case LongestFirst:
		if ra != rb {
			return ra > rb
		}
	case ShortestFirst:
		if ra != rb {
			return ra < rb
		}
	}
	return a < b
}

// enqueueReady inserts the task into the ready queue at its policy
// position (binary search + shift, no re-sort).
//
//repro:hot
func (r *runner) enqueueReady(id dag.TaskID) {
	if r.trace != nil {
		r.trace.Record(r.now, obs.Event{Kind: obs.KindReady, Task: int(id), Name: r.wf.Task(id).Name})
	}
	q := r.ready[r.readyHead:]
	i := r.readyHead + sort.Search(len(q), func(i int) bool { return !r.readyBefore(q[i], id) })
	if len(r.ready) == cap(r.ready) && r.readyHead > 0 {
		// Reuse the dispatched prefix before growing the array.
		n := copy(r.ready, q)
		i -= r.readyHead
		r.ready, r.readyHead = r.ready[:n], 0
	}
	r.ready = append(r.ready, 0)
	copy(r.ready[i+1:], r.ready[i:])
	r.ready[i] = id
}

// dispatch greedily assigns ready tasks (policy order) to free
// processors.  During a storage outage no task may start (it could not
// read its inputs); dispatching resumes when the window closes.  On a
// mixed fleet the batch that starts now is placed by the placement
// policy's priorities: the highest-priority tasks claim the reliable
// on-demand slots, the rest run on revocable spot capacity.
//
//repro:hot
func (r *runner) dispatch(now units.Duration) {
	if a := r.avail(now); a > now {
		if !r.dispatchDeferred {
			r.dispatchDeferred = true
			r.post(a, evDispatch, -1, 0)
		}
		return
	}
	q := r.ready[r.readyHead:]
	n := r.cluster.Free()
	if n > len(q) {
		n = len(q)
	}
	if n <= 0 {
		return
	}
	// The batch leaves the front of the ready queue into a buffer reused
	// across dispatches (startTask never dispatches).
	r.batch = append(r.batch[:0], q[:n]...)
	if r.readyHead += n; r.readyHead == len(r.ready) {
		r.ready, r.readyHead = r.ready[:0], 0
	}
	if r.trace != nil {
		r.trace.Record(now, obs.Event{Kind: obs.KindDispatch, Task: -1, Count: len(r.batch)})
	}
	if r.prio != nil && r.cluster.FreeReliable() > 0 {
		// Placement order, not start order: everything in the batch
		// starts at the same instant, so reordering only decides which
		// tasks land on the reliable sub-pool.  Task IDs are distinct,
		// so the order is total and needs no stable sort.
		slices.SortFunc(r.batch, r.placementOrder)
	}
	for _, id := range r.batch {
		r.startTask(id, now)
	}
}

// placementOrder ranks a dispatch batch for placement: the larger
// priority first, then the smaller task ID.
func (r *runner) placementOrder(a, b dag.TaskID) int {
	if r.prio[a] != r.prio[b] {
		if r.prio[a] > r.prio[b] {
			return -1
		}
		return 1
	}
	return int(a) - int(b)
}

// recovery is the recovery policy governing a task's attempt in flight:
// the configured one at the attempt's effective checkpoint interval.
func (r *runner) recovery(id dag.TaskID) Recovery {
	rec := r.cfg.Recovery
	rec.Interval = r.tasks[id].interval
	return rec
}

// effectiveRecovery derives the recovery policy governing one attempt:
// the configured recovery with its interval re-spaced by the checkpoint
// trigger for this attempt's placement and remaining work.  A
// non-positive trigger result keeps the configured base interval.
func (r *runner) effectiveRecovery(rem units.Duration, onReliable bool) Recovery {
	rec := r.cfg.Recovery
	if !rec.Checkpoint {
		return rec
	}
	iv := r.policies.Checkpoint.EffectiveInterval(policy.CheckpointContext{
		Interval:        rec.Interval,
		Overhead:        rec.Overhead,
		Remaining:       rem,
		OnReliable:      onReliable,
		SpotRatePerHour: r.cfg.Spot.RatePerHour,
	})
	if iv > 0 {
		rec.Interval = iv
	}
	return rec
}

// startTask begins one attempt on a free processor, reliable sub-pool
// first (on a uniform pool every slot is spot capacity).
func (r *runner) startTask(id dag.TaskID, now units.Duration) {
	ts := &r.tasks[id]
	ts.onReliable = r.cluster.AcquireReliable(now)
	if !ts.onReliable {
		if !r.cluster.AcquireSpot(now) {
			r.fail(fmt.Errorf("exec: dispatch overran the free processors at %v", now))
			return
		}
		r.running[id/64] |= 1 << (id % 64)
	}
	t := r.wf.Task(id)
	// The attempt resumes from the banked progress and pays its
	// effective recovery policy's checkpoint overhead along the way.
	rem := t.Runtime - ts.banked
	rec := r.effectiveRecovery(rem, ts.onReliable)
	ts.interval = rec.Interval
	wall := rec.attemptWall(rem)
	ts.runStart = now
	ts.runRem = rem
	if r.trace != nil {
		pool := "spot"
		if ts.onReliable {
			pool = "reliable"
		}
		r.trace.Record(now, obs.Event{Kind: obs.KindStart, Task: int(id), Name: t.Name, Pool: pool})
		if ts.banked > 0 {
			ev := obs.Event{Kind: obs.KindRestore, Task: int(id), Name: t.Name}
			if rec.Checkpoint {
				ev.Bytes = int64(rec.Bytes)
			}
			r.trace.Record(now, ev)
		}
	}
	// Checkpoint data volumes: resuming from a checkpoint reads its image
	// back out of storage, and a task's first durable checkpoint makes
	// its image resident until the task completes (replacement writes
	// keep the size constant, so only the first write changes occupancy).
	if rec.Checkpoint && rec.Bytes > 0 {
		if ts.banked > 0 {
			r.ckptRestored += rec.Bytes
		}
		if rec.checkpointsFor(rem) > 0 && !r.storage.Has(r.ckptSlot(id)) {
			r.post(now+rec.Interval+rec.Overhead, evCheckpoint, id, ts.attempt)
		}
	}
	if r.cfg.RecordSchedule {
		ts.span = int32(len(r.schedule))
		r.schedule = append(r.schedule, TaskSpan{
			Task: id, Name: t.Name, Type: t.Type,
			Start: now, Finish: now + wall,
		})
	}
	r.post(now+wall, evComplete, id, ts.attempt)
}

func (r *runner) completeTask(id dag.TaskID, now units.Duration) {
	if err := r.releaseSlot(id, now); err != nil {
		r.fail(err)
		return
	}
	if r.cfg.RecordSchedule {
		r.tasks[id].span = -1
	}
	// Reliability extension: the attempt may fail, in which case the
	// task goes back to the ready queue and the burned CPU time stays on
	// the bill.  An application failure discards the whole attempt,
	// checkpoints included: the crash is presumed to have poisoned them.
	if r.failRNG != nil && r.failRNG.Float64() < r.cfg.FailureProb {
		r.retries++
		if r.trace != nil {
			r.trace.Record(now, obs.Event{Kind: obs.KindRetry, Task: int(id), Name: r.wf.Task(id).Name})
		}
		// The crash poisons the failed attempt's own checkpoints, but
		// progress banked by earlier preemptions survives (the banked
		// work is untouched), so its backing image must stay resident
		// for the retry to restore from.  Only an image with nothing
		// banked behind it is poisoned garbage.
		if r.tasks[id].banked == 0 {
			if err := r.dropCheckpoint(id, now); err != nil {
				r.fail(err)
				return
			}
		}
		r.enqueueReady(id)
		r.dispatch(now)
		return
	}
	rec := r.recovery(id)
	n := rec.checkpointsFor(r.tasks[id].runRem)
	r.checkpoints += n
	r.ckptWritten += units.Bytes(n) * rec.Bytes
	if r.trace != nil {
		if n > 0 {
			r.trace.Record(now, obs.Event{
				Kind: obs.KindCheckpoint, Task: int(id), Name: r.wf.Task(id).Name,
				Count: n, Bytes: int64(units.Bytes(n) * rec.Bytes), Detail: "periodic",
			})
		}
		r.trace.Record(now, obs.Event{Kind: obs.KindFinish, Task: int(id), Name: r.wf.Task(id).Name})
	}
	// A completed task's checkpoint image is garbage; free the storage.
	if err := r.dropCheckpoint(id, now); err != nil {
		r.fail(err)
		return
	}
	r.doneTasks++
	t := r.wf.Task(id)

	switch r.cfg.Mode {
	case datamgmt.Regular, datamgmt.Cleanup:
		for _, out := range r.wf.DeclaredOutputIDs(id) {
			if err := r.storage.Put(now, int(out), r.wf.FileByID(out).Size); err != nil {
				r.fail(err)
				return
			}
		}
		if r.analyzer != nil {
			r.dead = r.analyzer.TaskDone(id, r.dead[:0])
			for _, dead := range r.dead {
				if err := r.storage.Delete(now, int(dead)); err != nil {
					r.fail(err)
					return
				}
			}
		}
		for _, c := range t.Children() {
			r.tasks[c].depsLeft--
			if r.tasks[c].depsLeft == 0 {
				r.enqueueReady(c)
			}
		}
		if r.doneTasks == r.wf.NumTasks() {
			r.finishResident(now)
			return
		}
	case datamgmt.RemoteIO:
		r.finishRemoteTask(id, now)
	}
	r.dispatch(now)
}
