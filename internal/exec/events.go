package exec

// Data-staging event flows: the resident models (Regular/Cleanup) stage
// everything in, run, and stage out once; the Remote I/O model streams
// every task's inputs and outputs individually.

import (
	"slices"

	"repro/internal/cloudsim"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/units"
)

// ---- Regular / Cleanup ----

func (r *runner) startResident() {
	// Phase 1: stage in every external input, serialized on the link in
	// name order.  Each file becomes resident on arrival.
	//
	// The arrivals are applied to storage as they are booked, each at its
	// own instant, not queued: until evExecStart no task is ready or
	// running, so nothing that fires before it (a reclaim, a restore, a
	// deferred dispatch) touches storage.  The link is FIFO, so the
	// arrivals are booked in the order of their instants, and storage
	// sees the same sequence of changes as when each fired as an event.
	start := r.avail(r.now)
	stageInEnd := start
	for _, f := range r.wf.ExternalInputs() {
		s, end, err := r.reserveAvail(start, f.Size, cloudsim.In)
		if err != nil {
			r.fail(err)
			return
		}
		if r.trace != nil {
			r.trace.Record(s, obs.Event{
				Kind: obs.KindTransfer, Task: -1, Name: f.Name,
				Bytes: int64(f.Size), Dir: "in", End: end.Seconds(),
			})
		}
		if err := r.storage.Put(end, int(f.ID()), f.Size); err != nil {
			r.fail(err)
			return
		}
		if end > stageInEnd {
			stageInEnd = end
		}
	}
	// Phase 2 begins when all inputs are resident.
	r.post(stageInEnd, evExecStart, -1, 0)
}

// beginExecution readies every root task once the inputs are resident.
func (r *runner) beginExecution() {
	for _, t := range r.wf.Tasks() {
		if r.tasks[t.ID].depsLeft == 0 {
			r.enqueueReady(t.ID)
		}
	}
	r.dispatch(r.now)
}

func (r *runner) finishResident(now units.Duration) {
	r.execEnd = now
	r.capacityAtExecEnd = r.cluster.CapacityProcSeconds(now)
	r.reliableCapAtExecEnd = r.cluster.ReliableCapacityProcSeconds(now)
	// Phase 3: stage out the declared outputs in name order, then delete
	// everything still resident ("after that ... all the files are
	// deleted from the storage resource").
	var lastEnd units.Duration = now
	for _, f := range r.wf.OutputFiles() {
		s, end, err := r.reserveAvail(now, f.Size, cloudsim.Out)
		if err != nil {
			r.fail(err)
			return
		}
		if r.trace != nil {
			r.trace.Record(s, obs.Event{
				Kind: obs.KindTransfer, Task: -1, Name: f.Name,
				Bytes: int64(f.Size), Dir: "out", End: end.Seconds(),
			})
		}
		if end > lastEnd {
			lastEnd = end
		}
	}
	r.post(lastEnd, evFinish, -1, 0)
}

// finishStageOut deletes every resident file once the outputs reached
// the user.  That instant is the makespan: the run is over.
func (r *runner) finishStageOut() {
	for _, f := range r.wf.Files() {
		if slot := int(f.ID()); r.storage.Has(slot) {
			if err := r.storage.Delete(r.now, slot); err != nil {
				r.fail(err)
				return
			}
		}
	}
	r.makespan = r.now
	r.stopped = true
}

// ---- Remote I/O ----

// remoteSlot returns the storage slot of task id's staged copy of f,
// one of its inputs or (out) outputs.  The task's block holds its inputs
// then its outputs, each in name order, which is FileID order.
func (r *runner) remoteSlot(id dag.TaskID, f dag.FileID, out bool) int {
	slot, ids := r.remoteBase[id], r.wf.InputIDs(id)
	if out {
		slot, ids = slot+len(ids), r.wf.OutputIDs(id)
	}
	i, _ := slices.BinarySearch(ids, f)
	return slot + i
}

func (r *runner) startRemoteIO() {
	for _, t := range r.wf.Tasks() {
		if r.tasks[t.ID].depsLeft == 0 {
			r.beginStaging(t.ID)
		}
	}
}

// beginStaging starts the input transfers of a remote-I/O task.  The
// task fetches its files over its own connection, one after another, at
// full bandwidth; concurrent tasks do not contend (each remote-I/O task
// is an independent stream in the paper's model).
//
// The task is ready the instant its last input arrives.  That fetch's
// event readies it (see fire): staging it from an event of its own,
// queued right after at the same instant, would fire next anyway, as no
// queued event sorts between the two and a reclaim at that instant
// fires before both.  Only a task with no inputs queues evStaged.
func (r *runner) beginStaging(id dag.TaskID) {
	ids := r.wf.InputIDs(id)
	if len(ids) == 0 {
		r.post(r.now, evStaged, id, 0)
		return
	}
	cur := r.now
	for i, in := range ids {
		f := r.wf.FileByID(in)
		cur = r.avail(cur)
		s, end, err := r.link.Record(cur, f.Size, cloudsim.In)
		if err != nil {
			r.fail(err)
			return
		}
		if r.trace != nil {
			r.trace.Record(s, obs.Event{
				Kind: obs.KindTransfer, Task: int(id), Name: f.Name,
				Bytes: int64(f.Size), Dir: "in", End: end.Seconds(),
			})
		}
		r.post(end, evFetched, id, uint32(i))
		cur = end
	}
}

// finishRemoteTask stages out every output of a completed remote-I/O
// task, then deletes the task's staged inputs and outputs.
func (r *runner) finishRemoteTask(id dag.TaskID, now units.Duration) {
	// Outputs become resident at completion...
	for _, out := range r.wf.DeclaredOutputIDs(id) {
		if err := r.storage.Put(now, r.remoteSlot(id, out, true), r.wf.FileByID(out).Size); err != nil {
			r.fail(err)
			return
		}
	}
	// ...are transferred to the user over the task's own stream...
	cur := now
	for _, out := range r.wf.OutputIDs(id) {
		f := r.wf.FileByID(out)
		cur = r.avail(cur)
		s, end, err := r.link.Record(cur, f.Size, cloudsim.Out)
		if err != nil {
			r.fail(err)
			return
		}
		if r.trace != nil {
			r.trace.Record(s, obs.Event{
				Kind: obs.KindTransfer, Task: int(id), Name: f.Name,
				Bytes: int64(f.Size), Dir: "out", End: end.Seconds(),
			})
		}
		cur = end
	}
	// ...and then inputs and outputs are deleted from the resource.
	r.post(cur, evCleanup, id, 0)
}

// cleanupRemoteTask deletes a remote-I/O task's staged copies once its
// outputs reached the user, releasing its children.  The last task's
// cleanup is the makespan: the run is over.
func (r *runner) cleanupRemoteTask(id dag.TaskID) {
	for _, in := range r.wf.DeclaredInputIDs(id) {
		if err := r.storage.Delete(r.now, r.remoteSlot(id, in, false)); err != nil {
			r.fail(err)
			return
		}
	}
	for _, out := range r.wf.DeclaredOutputIDs(id) {
		if err := r.storage.Delete(r.now, r.remoteSlot(id, out, true)); err != nil {
			r.fail(err)
			return
		}
	}
	r.stagedOut++
	r.makespan = r.now
	// Children depend on the data reaching the user.
	for _, c := range r.wf.Task(id).Children() {
		r.tasks[c].depsLeft--
		if r.tasks[c].depsLeft == 0 {
			r.beginStaging(c)
		}
	}
	if r.stagedOut == r.wf.NumTasks() {
		r.execEnd = r.now
		r.capacityAtExecEnd = r.cluster.CapacityProcSeconds(r.now)
		r.reliableCapAtExecEnd = r.cluster.ReliableCapacityProcSeconds(r.now)
		r.stopped = true
	}
}
