package exec

// The event loop: the executor's deterministic discrete-event kernel,
// the role GridSim played for the paper's experiments.
//
// Events are small typed values -- what happens (kind), to which task,
// with one word of payload -- kept in a value min-heap ordered by
// (time, sequence number).  Events scheduled for the same instant fire
// in scheduling order, which makes every run bit-reproducible.  The
// loop stops as soon as the run is over: every later event is a no-op.
//
// Spot reclaims are not queued at all.  They arrive sorted, so the loop
// reads them through a cursor merged with the heap.  A reclaim ranks
// right after the start event (seq 1) and before every other event at
// its instant, as if all of them had been queued, in order, right after
// the start.  A sampled spot market (Config.Spot) is read through a
// window: the loop samples every reclaim before one hour, and doubles
// the window, capped at the horizon, whenever it has fired every
// sampled reclaim and the heap's next event (if any) is at or past the
// window's end.  An instance's draws do not depend on where the horizon
// cuts its stream, so each window is a prefix of the whole schedule,
// and the run fires exactly the reclaims it would fire from the whole
// schedule while sampling only about as far as its makespan.

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/units"
)

// evKind says what a queued event does when it fires.
type evKind uint8

const (
	evStart      evKind = iota // the VMs have booted: begin the data-management model
	evExecStart                // resident: every input is resident, tasks may run
	evFinish                   // resident: stage-out done, delete everything (the makespan)
	evFetched                  // remote I/O: input aux (name order) of task arrived; the last one readies task
	evStaged                   // remote I/O: task, which has no inputs, is ready
	evCleanup                  // remote I/O: task's outputs reached the user
	evDispatch                 // a storage outage closed: dispatch again
	evCheckpoint               // first durable checkpoint of task's attempt aux
	evComplete                 // task's attempt aux finishes
	evRestore                  // aux reclaimed processors come back
)

// event is one queued occurrence.  task is -1 for run-level events.
type event struct {
	at   units.Duration
	seq  uint64
	kind evKind
	task int32
	aux  uint32
}

// before orders events by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events by (at, seq).
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < last && h[l].before(&h[small]) {
			small = l
		}
		if r := 2*i + 2; r < last && h[r].before(&h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}

// post queues an event at absolute simulated time at.  Scheduling in
// the past panics: it is always a simulation bug.
func (r *runner) post(at units.Duration, kind evKind, task dag.TaskID, aux uint32) {
	if at < r.now {
		panic(fmt.Sprintf("exec: event scheduled at %v before now %v", at, r.now))
	}
	r.seq++
	r.queue.push(event{at: at, seq: r.seq, kind: kind, task: int32(task), aux: aux})
}

// cancelCheckInterval is how many events the loop fires between context
// polls: frequent enough that cancellation lands promptly, rare enough
// that the poll never shows up in profiles.
const cancelCheckInterval = 64

// firstWindow is the end of a sampled spot market's first reclaim
// window; each extension doubles it.
const firstWindow = units.Duration(units.SecondsPerHour)

// loop fires events in (time, seq) order, merging the reclaim stream
// with the heap, until the run is over, a handler fails, or nothing is
// left.  Once ctx is canceled it returns ctx's error with the clock
// frozen at the abort point.  It fires every simulated event of every
// run, so its body must not allocate; only a window extension does.
//
//repro:hot
func (r *runner) loop(ctx context.Context) error {
	next := 0 // the first reclaim not yet fired
	for n := 0; !r.stopped; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Every reclaim not yet sampled is at or past windowEnd, so the
		// window must grow before anything there may fire.
		if next == len(r.reclaims) && r.windowEnd < r.cfg.Spot.Horizon &&
			(len(r.queue) == 0 || r.queue[0].at >= r.windowEnd) {
			if err := r.extendWindow(); err != nil {
				return err
			}
			continue
		}
		if next < len(r.reclaims) {
			p := r.reclaims[next]
			if len(r.queue) == 0 || p.Reclaim < r.queue[0].at ||
				(p.Reclaim == r.queue[0].at && r.queue[0].seq > 1) {
				next++
				r.now = p.Reclaim
				r.reclaim(p, r.now)
				continue
			}
		} else if len(r.queue) == 0 {
			return nil
		}
		ev := r.queue.pop()
		r.now = ev.at
		r.fire(ev)
	}
	return nil
}

// extendWindow doubles the sampled reclaim window, capped at the
// horizon, and re-samples it into the run's window buffers, over the
// old window.  The new window's sorted schedule starts with the old
// one, so the loop's cursor stays valid.
func (r *runner) extendWindow() error {
	m := r.cfg.Spot
	r.windowEnd = min(max(2*r.windowEnd, firstWindow), m.Horizon)
	procs := r.cluster.Provisioned() - r.cluster.Reliable()
	w, err := r.window.sample(r.windowEnd, procs, m.RatePerHour, m.Warning, m.Downtime, m.Seed)
	if err != nil {
		return err
	}
	if sampleHook != nil {
		sampleHook(len(w))
	}
	r.reclaims = w
	return nil
}

// sampleHook, when a test sets it, is called with the size of every
// reclaim window a run samples.  Runs may call it concurrently.
var sampleHook func(reclaims int)

// firedHook, when a test sets it, is called with the number of queued
// events each run fired, once its loop is done.  Runs may call it
// concurrently.
var firedHook func(events int)

// reclaimsScheduled reports whether the run's whole reclaim schedule is
// non-empty, whatever part of it the run sampled: the exact-CPU
// accounting in run holds only for runs without one.
func (r *runner) reclaimsScheduled() bool {
	switch m := r.cfg.Spot; {
	case len(r.reclaims) > 0:
		return true
	case m.RatePerHour <= 0 || r.windowEnd >= m.Horizon:
		return false
	default:
		return m.anyReclaim(r.cluster.Provisioned() - r.cluster.Reliable())
	}
}

// fire runs one event's handler.
func (r *runner) fire(ev event) {
	id := dag.TaskID(ev.task)
	switch ev.kind {
	case evStart:
		if r.cfg.Mode == datamgmt.RemoteIO {
			r.startRemoteIO()
		} else {
			r.startResident()
		}
	case evExecStart:
		r.beginExecution()
	case evFinish:
		r.finishStageOut()
	case evFetched:
		ids := r.wf.InputIDs(id)
		if err := r.storage.Put(r.now, r.remoteBase[id]+int(ev.aux), r.wf.FileByID(ids[ev.aux]).Size); err != nil {
			r.fail(err)
			return
		}
		if int(ev.aux) == len(ids)-1 {
			r.enqueueReady(id)
			r.dispatch(r.now)
		}
	case evStaged:
		r.enqueueReady(id)
		r.dispatch(r.now)
	case evCleanup:
		r.cleanupRemoteTask(id)
	case evDispatch:
		r.dispatchDeferred = false
		r.dispatch(r.now)
	case evCheckpoint:
		if r.tasks[id].attempt != ev.aux || r.storage.Has(r.ckptSlot(id)) {
			return
		}
		if err := r.storage.Put(r.now, r.ckptSlot(id), r.cfg.Recovery.Bytes); err != nil {
			r.fail(err)
		}
	case evComplete:
		// A preemption between dispatch and completion bumps the
		// attempt counter; this event then belongs to a dead attempt.
		if r.tasks[id].attempt == ev.aux {
			r.completeTask(id, r.now)
		}
	case evRestore:
		r.restoreCapacity(int(ev.aux))
	}
}
