// Preemption support: spot "capacity reclaim" events and the recovery
// policies that decide how much of a killed attempt survives.
//
// The paper's §8 treats rented capacity as reliable except for storage
// outages; spot markets (introduced by Amazon in 2009, a year after the
// paper) rent the same capacity cheaper in exchange for the right to
// revoke it mid-run with a short warning.  This file models exactly
// that: at a scheduled instant some processors disappear, running tasks
// on them are killed, and each task resumes either from scratch or from
// its last durable checkpoint.  Everything is deterministic: the same
// revocation schedule and recovery policy always reproduce the same
// metrics, so spot scenarios stay cacheable and sweep-safe.
package exec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/units"
)

// Preemption is one capacity-reclaim event: at Reclaim, Processors slots
// are revoked from the pool (clamped to what is present).  Idle slots
// are taken first; if that is not enough, the most recently started
// tasks are killed.  Warning is the notice lead time (EC2's two-minute
// spot warning): with checkpointing enabled and Warning >= the
// checkpoint overhead, a victim cuts one final checkpoint during the
// warning window.  Restore, when positive, is when the reclaimed
// capacity comes back (replacement capacity won at the spot price);
// zero means it never returns.
type Preemption struct {
	Reclaim    units.Duration
	Processors int
	Warning    units.Duration
	Restore    units.Duration
}

// validatePreemptions checks ordering and well-formedness.  onDemand is
// the reliable sub-pool size: with a reliable floor the workflow can
// always finish there, so only a floorless pool can be permanently
// revoked to a standstill.
func validatePreemptions(pre []Preemption, procs, onDemand int) error {
	permanent := 0
	for i, p := range pre {
		switch {
		case p.Reclaim < 0:
			return fmt.Errorf("exec: preemption %d reclaims at negative time %v", i, p.Reclaim)
		case p.Processors < 1:
			return fmt.Errorf("exec: preemption %d reclaims %d processors", i, p.Processors)
		case p.Warning < 0 || p.Warning > p.Reclaim:
			return fmt.Errorf("exec: preemption %d warning %v outside [0, %v]", i, p.Warning, p.Reclaim)
		case p.Restore != 0 && p.Restore <= p.Reclaim:
			return fmt.Errorf("exec: preemption %d restores at %v, before its reclaim at %v", i, p.Restore, p.Reclaim)
		}
		if i > 0 && p.Reclaim < pre[i-1].Reclaim {
			return fmt.Errorf("exec: preemptions unsorted at index %d", i)
		}
		if p.Restore == 0 {
			permanent += p.Processors
		}
	}
	if permanent >= procs && procs > 0 && onDemand == 0 {
		return fmt.Errorf("exec: preemptions permanently revoke all %d processors; the workflow could never finish", procs)
	}
	return nil
}

// Recovery says how a preempted task resumes.  The zero value re-runs
// it from scratch, losing the whole attempt.  With Checkpoint set, the
// task writes a durable checkpoint after every Interval seconds of
// useful compute, each costing Overhead extra wall-clock seconds on the
// processor; a killed attempt restarts from its last completed
// checkpoint instead of from zero.
type Recovery struct {
	Checkpoint bool
	// Interval is the useful compute between checkpoints (> 0 when
	// Checkpoint is set).
	Interval units.Duration
	// Overhead is the wall-clock cost of writing one checkpoint (>= 0).
	Overhead units.Duration
	// Bytes is the size of one checkpoint image.  Each write moves this
	// much data into cloud storage (the latest image stays resident until
	// the task completes, and package cost charges every write as inbound
	// transfer) and each restore reads it back out.  Zero keeps
	// checkpoints free of data charges.
	Bytes units.Bytes
}

// validate rejects inconsistent recovery policies.
func (rec Recovery) validate() error {
	if !rec.Checkpoint {
		if rec.Interval != 0 || rec.Overhead != 0 || rec.Bytes != 0 {
			return fmt.Errorf("exec: checkpoint interval/overhead/bytes set without Checkpoint")
		}
		return nil
	}
	if rec.Interval <= 0 {
		return fmt.Errorf("exec: non-positive checkpoint interval %v", rec.Interval)
	}
	if rec.Overhead < 0 {
		return fmt.Errorf("exec: negative checkpoint overhead %v", rec.Overhead)
	}
	if rec.Bytes < 0 {
		return fmt.Errorf("exec: negative checkpoint size %v", rec.Bytes)
	}
	return nil
}

// dropCheckpoint deletes a task's resident checkpoint image, if any:
// completion makes it garbage and an application failure poisons it.
func (r *runner) dropCheckpoint(id dag.TaskID, now units.Duration) error {
	if r.cfg.Recovery.Bytes <= 0 || !r.storage.Has(r.ckptSlot(id)) {
		return nil
	}
	return r.storage.Delete(now, r.ckptSlot(id))
}

// checkpointsFor returns how many checkpoints an attempt with rem
// seconds of useful work writes when it runs to completion.  A
// checkpoint that would coincide with completion is skipped: finishing
// is durable by itself.
func (rec Recovery) checkpointsFor(rem units.Duration) int {
	if !rec.Checkpoint || rem <= 0 {
		return 0
	}
	n := int(math.Ceil(float64(rem)/float64(rec.Interval))) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// attemptWall returns the wall-clock length of an attempt that must
// complete rem seconds of useful work: the work itself plus every
// checkpoint written along the way.
func (rec Recovery) attemptWall(rem units.Duration) units.Duration {
	return rem + units.Duration(rec.checkpointsFor(rem))*rec.Overhead
}

// usefulDuring returns the useful compute finished elapsed wall seconds
// into an attempt of rem total useful work (checkpoint windows produce
// no useful work).
func (rec Recovery) usefulDuring(elapsed, rem units.Duration) units.Duration {
	if elapsed <= 0 {
		return 0
	}
	u := elapsed
	if rec.Checkpoint {
		cycle := rec.Interval + rec.Overhead
		full := math.Floor(float64(elapsed) / float64(cycle))
		partial := elapsed - units.Duration(full)*cycle
		if partial > rec.Interval {
			partial = rec.Interval
		}
		u = units.Duration(full)*rec.Interval + partial
	}
	if u > rem {
		u = rem
	}
	return u
}

// bankedDuring returns the useful work durably checkpointed elapsed
// wall seconds into an attempt of rem total useful work, and how many
// checkpoints that is: only fully written checkpoints count.
func (rec Recovery) bankedDuring(elapsed, rem units.Duration) (units.Duration, int) {
	if !rec.Checkpoint || elapsed <= 0 {
		return 0, 0
	}
	cycle := rec.Interval + rec.Overhead
	n := int(math.Floor(float64(elapsed) / float64(cycle)))
	if max := rec.checkpointsFor(rem); n > max {
		n = max
	}
	return units.Duration(n) * rec.Interval, n
}

// reclaim executes one capacity-reclaim event: kill as many running
// spot tasks as the revocation requires (most recently started first,
// the youngest work), shrink the spot sub-pool, and schedule the
// capacity's return.  The reliable on-demand sub-pool is untouchable.
func (r *runner) reclaim(p Preemption, now units.Duration) {
	if r.doneTasks == r.wf.NumTasks() {
		return // all compute finished; a late reclaim has nothing to take
	}
	k := p.Processors
	if k > r.cluster.SpotTotal() {
		k = r.cluster.SpotTotal()
	}
	if k <= 0 {
		return // earlier, still-open reclaims already took the whole spot pool
	}
	if r.trace != nil {
		r.trace.Record(now, obs.Event{Kind: obs.KindRevoke, Task: -1, Procs: k})
	}
	if need := k - r.cluster.SpotFree(); need > 0 {
		for _, v := range r.pickVictims(need, now) {
			r.preemptTask(v.id, now, p.Warning, v.score)
			if r.err != nil {
				return
			}
		}
	}
	if err := r.cluster.Revoke(now, k); err != nil {
		r.fail(err)
		return
	}
	if r.trace != nil {
		r.trace.Record(now, obs.Event{Kind: obs.KindResize, Task: -1, Procs: -k})
	}
	// A victim may be able to restart right away on capacity the reclaim
	// cannot touch -- an idle reliable slot, or spot slots beyond k.  On
	// a uniform pool this is a no-op (victims freed exactly the slots
	// just revoked), but a mixed fleet must not strand ready work while
	// reliable processors idle.
	r.dispatch(now)
	if p.Restore > 0 {
		r.post(p.Restore, evRestore, -1, uint32(k))
	}
}

// restoreCapacity returns k reclaimed processors to the spot sub-pool.
func (r *runner) restoreCapacity(k int) {
	if r.doneTasks == r.wf.NumTasks() {
		return // run already complete; leave the clock untouched
	}
	if err := r.cluster.Restore(r.now, k); err != nil {
		r.fail(err)
		return
	}
	if r.trace != nil {
		r.trace.Record(r.now, obs.Event{Kind: obs.KindResize, Task: -1, Procs: k})
	}
	r.dispatch(r.now)
}

// victimChoice is one victim the policy selected, with the score that
// condemned it (surfaced on the flight recorder's victim events).
type victimChoice struct {
	id    dag.TaskID
	score float64
}

// pickVictims selects need running tasks to kill, scored by the victim
// policy: the largest scores die first, task ID descending as the
// deterministic tie-break.  Only tasks on the spot sub-pool are
// candidates -- reliable on-demand capacity is exactly the capacity
// reclaims cannot touch.  They are read from the running bitset in task
// order.  The returned slice is reused by the next call.
func (r *runner) pickVictims(need int, now units.Duration) []victimChoice {
	cands := r.cands[:0]
	for w, word := range r.running {
		for ; word != 0; word &= word - 1 {
			tid := dag.TaskID(w*64 + bits.TrailingZeros64(word))
			ts := &r.tasks[tid]
			rec := r.recovery(tid)
			elapsed := now - ts.runStart
			rem := ts.runRem
			saved, _ := rec.bankedDuring(elapsed, rem)
			cands = append(cands, policy.VictimCandidate{
				Task:      tid,
				Start:     ts.runStart,
				Elapsed:   elapsed,
				Remaining: rem,
				Runtime:   r.wf.Task(tid).Runtime,
				Banked:    ts.banked,
				Useful:    rec.usefulDuring(elapsed, rem),
				Saved:     saved,
			})
		}
	}
	r.cands = cands
	score, perm := r.scores[:0], r.perm[:0]
	for i, c := range cands {
		score = append(score, r.policies.Victim.Score(c))
		perm = append(perm, i)
	}
	r.scores, r.perm = score, perm
	// The sort permutes perm, but its comparator reads score by
	// position, not by candidate: once an element moves, score[i] is no
	// longer the score of the candidate at position i.  Every committed
	// spot result was ranked this way, so it is kept exactly; ranking by
	// each candidate's own score would change them.
	victimRank{score: score, perm: perm}.sort()
	if need > len(cands) {
		need = len(cands)
	}
	out := r.victims[:0]
	for _, k := range perm[:need] {
		out = append(out, victimChoice{id: cands[k].Task, score: score[k]})
	}
	r.victims = out
	return out
}

// preemptTask kills one running attempt: bank whatever the recovery
// policy preserved, put the task back on the ready queue, and free its
// processor.  The pending completion event is disarmed by the attempt
// counter.
func (r *runner) preemptTask(id dag.TaskID, now units.Duration, warning units.Duration, score float64) {
	rec := r.recovery(id)
	elapsed := now - r.tasks[id].runStart
	rem := r.tasks[id].runRem
	if r.trace != nil {
		r.trace.Record(now, obs.Event{Kind: obs.KindVictim, Task: int(id), Name: r.wf.Task(id).Name, Score: score})
	}
	saved, ckpts := rec.bankedDuring(elapsed, rem)
	if r.trace != nil && ckpts > 0 {
		r.trace.Record(now, obs.Event{
			Kind: obs.KindCheckpoint, Task: int(id), Name: r.wf.Task(id).Name,
			Count: ckpts, Bytes: int64(units.Bytes(ckpts) * rec.Bytes), Detail: "periodic",
		})
	}
	// The warning window lets a checkpointing task cut one final
	// checkpoint before the capacity disappears, preserving all useful
	// work finished by notice time -- provided the write fits in the
	// window.
	if rec.Checkpoint && warning >= rec.Overhead {
		if u := rec.usefulDuring(elapsed-warning, rem); u > saved {
			saved = u
			ckpts++
			if r.trace != nil {
				r.trace.Record(now, obs.Event{
					Kind: obs.KindCheckpoint, Task: int(id), Name: r.wf.Task(id).Name,
					Count: 1, Bytes: int64(rec.Bytes), Detail: "emergency",
				})
			}
		}
	}
	r.tasks[id].banked += saved
	r.checkpoints += ckpts
	if rec.Bytes > 0 && ckpts > 0 {
		r.ckptWritten += units.Bytes(ckpts) * rec.Bytes
		// The kill may land before the first periodic write event (an
		// emergency checkpoint inside the warning window); the banked
		// image must be resident for the restart to read back.
		if !r.storage.Has(r.ckptSlot(id)) {
			if err := r.storage.Put(now, r.ckptSlot(id), rec.Bytes); err != nil {
				r.fail(err)
				return
			}
		}
	}
	r.wasted += (elapsed - saved).Seconds()
	r.preempted++
	r.tasks[id].attempt++
	if r.cfg.RecordSchedule {
		if i := r.tasks[id].span; i >= 0 {
			r.schedule[i].Finish = now // the Gantt shows the killed attempt
		}
	}
	if err := r.releaseSlot(id, now); err != nil {
		r.fail(err)
		return
	}
	if r.trace != nil {
		r.trace.Record(now, obs.Event{Kind: obs.KindRestart, Task: int(id), Name: r.wf.Task(id).Name})
	}
	r.enqueueReady(id)
}

// SpotMarket is a per-instance spot market for the runner to sample
// reclaims from (Config.Spot): each spot instance is reclaimed as its
// own Poisson process at RatePerHour over [0, Horizon), exactly as
// SpotScheduleInstances samples it, with warnings in [Warning/2,
// Warning] and the capacity back Downtime later.  A zero RatePerHour
// samples nothing.
type SpotMarket struct {
	RatePerHour float64
	Warning     units.Duration
	Downtime    units.Duration
	Seed        int64
	Horizon     units.Duration
}

// validate checks the market for a spot sub-pool of procs instances
// over its whole horizon, before the run samples any of it: the
// sampler's arguments, the schedule's worst-case size, and the
// downtime's resolution.  A run that samples window by window must
// refuse exactly the plans the whole schedule would, whatever its
// makespan.
func (m SpotMarket) validate(procs int) error {
	if err := validateSpotArgs(m.Horizon, procs, m.RatePerHour, m.Warning, m.Downtime); err != nil {
		return err
	}
	if _, err := spotScheduleCap(m.Horizon, procs, m.RatePerHour, m.Downtime); err != nil {
		return err
	}
	// A reclaim at t restores at t+Downtime, which must be a later
	// instant.  Below the horizon the float spacing is widest at its two
	// largest values, and one of them has an even mantissa, so testing
	// both covers the round-half-to-even tie.
	t := math.Nextafter(float64(m.Horizon), 0)
	u := math.Nextafter(t, 0)
	if t+float64(m.Downtime) == t || u+float64(m.Downtime) == u {
		return fmt.Errorf("%w: a reclaim near the %.1f h horizon would restore at its own instant, because the clock's resolution there is %.3g s; raise spot.downtime_seconds (%g s) above half of it",
			ErrSpotDowntimeTooShort, m.Horizon.Hours(), math.Nextafter(t, math.Inf(1))-t, float64(m.Downtime))
	}
	return nil
}

// ErrSpotDowntimeTooShort reports a spot downtime below the simulation
// clock's resolution near the horizon: a reclaim there would restore at
// its own instant.
var ErrSpotDowntimeTooShort = errors.New("exec: spot downtime below the clock's resolution")

// anyReclaim reports whether the market's whole schedule over procs
// instances is non-empty, that is whether some instance's first reclaim
// falls before the horizon.  It costs one draw per instance.
func (m SpotMarket) anyReclaim(procs int) bool {
	var src lazySource
	rng := rand.New(&src)
	for i := 0; i < procs; i++ {
		rng.Seed(instanceSeed(m.Seed, i))
		if reclaimGap(rng, m.RatePerHour) < m.Horizon {
			return true
		}
	}
	return false
}

// validateSpotArgs checks the shared arguments of the spot-schedule
// samplers.  Every check fails on NaN, and only the rate may be
// infinite: a NaN or infinite clock would never reach the horizon.
func validateSpotArgs(horizon units.Duration, procs int, ratePerHour float64, warning, down units.Duration) error {
	switch {
	case !(horizon > 0) || math.IsInf(float64(horizon), 1):
		return fmt.Errorf("exec: spot horizon %v is not positive and finite", horizon)
	case procs < 1:
		return fmt.Errorf("exec: spot schedule needs at least 1 processor, got %d", procs)
	case !(ratePerHour >= 0):
		return fmt.Errorf("exec: revocation rate %v/hour is negative or NaN", ratePerHour)
	case !(warning >= 0) || math.IsInf(float64(warning), 1):
		return fmt.Errorf("exec: spot warning %v is negative or not finite", warning)
	case !(down > 0) || math.IsInf(float64(down), 1):
		return fmt.Errorf("exec: spot downtime %v is not positive and finite", down)
	}
	return nil
}

// maxSpotReclaims bounds the worst-case size of a per-instance spot
// schedule over its whole horizon: 2^20 reclaims of 32 bytes is
// 32 MiB, which SpotScheduleInstances sizes its output for before it
// draws.  Every registry experiment and benchmark scenario stays below
// about 22,000, so the bound only refuses schedules no run could use.
// A run samples its schedule window by window, but is held to the same
// bound over the whole horizon, so whether a plan is refused does not
// depend on its makespan.
const maxSpotReclaims = 1 << 20

// ErrSpotScheduleTooLarge reports a spot plan whose per-instance
// schedule could exceed maxSpotReclaims: too many spot instances, or a
// reclaim rate or downtime that lets each one be reclaimed too often.
var ErrSpotScheduleTooLarge = errors.New("exec: spot schedule too large")

// spotScheduleCap returns how many reclaims an instance can draw over
// the horizon: it expects about rate*hours, and downtime spaces them,
// so it never draws more than horizon/down+1 whatever the rate.  It
// refuses a schedule whose worst case over procs instances passes
// maxSpotReclaims.  The product is taken in floating point, where no
// input can overflow it.
func spotScheduleCap(horizon units.Duration, procs int, ratePerHour float64, down units.Duration) (float64, error) {
	perInstance := math.Min(ratePerHour*horizon.Hours(), float64(horizon/down)) + 1
	if worst := float64(procs) * perInstance; worst > maxSpotReclaims {
		return 0, fmt.Errorf("%w: %d spot instances could each be reclaimed up to %.3g times over the %.1f h horizon (rate %g/h, downtime %g s), %.3g in all against a bound of %d; lower the spot processor count or spot.rate_per_hour, or raise spot.downtime_seconds",
			ErrSpotScheduleTooLarge, procs, perInstance, horizon.Hours(), ratePerHour, float64(down), worst, maxSpotReclaims)
	}
	return perInstance, nil
}

// instanceSeed is spot instance i's sub-seed: a SplitMix64-style
// odd-constant stride decorrelates the instances, since adjacent raw
// seeds would make rand.Source streams that are far too similar.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*-0x61c8864680b583eb }

// reclaimGap draws the time from an instance's last restore (or the
// start) to its next reclaim.
func reclaimGap(rng *rand.Rand, ratePerHour float64) units.Duration {
	return units.Duration(rng.ExpFloat64() / ratePerHour * units.SecondsPerHour)
}

// SpotScheduleInstances samples a deterministic per-instance spot
// revocation schedule over a horizon: each of the procs spot instances
// is reclaimed independently as its own Poisson process at ratePerHour,
// every event killing exactly one processor and healing down later.
// Warning lead times are heterogeneous -- real spot notices jitter with
// market pressure -- sampled uniformly in [warning/2, warning] per
// event.  The same seed always yields the same schedule (instances draw
// from decorrelated sub-seeds), so per-instance spot runs stay
// reproducible and cacheable; ratePerHour == 0 returns an empty
// schedule.  An instance's draws do not depend on the horizon, so the
// schedule over a shorter horizon is exactly a prefix of this one: the
// runner samples a spot market's reclaims through this function, window
// by window.
func SpotScheduleInstances(horizon units.Duration, procs int, ratePerHour float64, warning, down units.Duration, seed int64) ([]Preemption, error) {
	var b scheduleBuffers
	return b.sample(horizon, procs, ratePerHour, warning, down, seed)
}

// scheduleBuffers are the arrays a per-instance schedule is sampled and
// merged in.  A runner keeps one set for all its spot windows.
type scheduleBuffers struct {
	out, merge []Preemption
	runs       []int
}

// sample is SpotScheduleInstances, sampling into b's arrays: the
// schedule it returns aliases one of them, so it lives only until the
// next call.
func (b *scheduleBuffers) sample(horizon units.Duration, procs int, ratePerHour float64, warning, down units.Duration, seed int64) ([]Preemption, error) {
	if err := validateSpotArgs(horizon, procs, ratePerHour, warning, down); err != nil {
		return nil, err
	}
	if ratePerHour == 0 {
		return nil, nil
	}
	perInstance, err := spotScheduleCap(horizon, procs, ratePerHour, down)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(b.out[:0], procs*int(perInstance))
	runs := resize(b.runs, procs+1) // instance i's reclaims are out[runs[i]:runs[i+1]]
	// One generator re-seeded per instance: Seed resets the whole source
	// state, so each instance draws exactly the stream a fresh
	// rand.NewSource with its sub-seed would.  The source seeds lazily
	// (lazySource), so an instance pays only for the table entries its
	// few draws read.
	var src lazySource
	rng := rand.New(&src)
	for i := 0; i < procs; i++ {
		rng.Seed(instanceSeed(seed, i))
		var t units.Duration
		for {
			t += reclaimGap(rng, ratePerHour)
			if t >= horizon {
				break
			}
			w := warning - units.Duration(rng.Float64()*0.5*float64(warning))
			if w > t {
				w = t
			}
			out = append(out, Preemption{Reclaim: t, Processors: 1, Warning: w, Restore: t + down})
			t += down
		}
		runs[i+1] = len(out)
	}
	b.out, b.runs = out, runs
	b.merge = slices.Grow(b.merge[:0], len(out))[:len(out)]
	return mergeRuns(out, b.merge, runs), nil
}

// mergeRuns orders a schedule made of sorted runs (one per instance, in
// instance order) by (Reclaim, Warning, Restore, instance), merging
// adjacent runs pairwise between out and buf, which is as long as out;
// the result is one of the two.  A merge takes the left run's reclaim on ties,
// so the result is exactly what a stable sort of the concatenation by
// (Reclaim, Warning, Restore) gives.  It is hand-written because the
// runs are already sorted: on a 128-instance schedule the sampler takes
// about half the time it takes with slices.SortStableFunc, and about
// two thirds of that with slices.SortFunc (BenchmarkSpotScheduleInstances).
func mergeRuns(out, buf []Preemption, runs []int) []Preemption {
	if len(out) == 0 {
		return nil
	}
	k := len(runs) - 1
	for width := 1; width < k; width *= 2 {
		for i := 0; i < k; i += 2 * width {
			lo, mid, hi := runs[i], runs[min(i+width, k)], runs[min(i+2*width, k)]
			a, b, dst := out[lo:mid], out[mid:hi], buf[lo:hi]
			for len(a) > 0 && len(b) > 0 {
				if b[0].before(&a[0]) {
					dst[0], b = b[0], b[1:]
				} else {
					dst[0], a = a[0], a[1:]
				}
				dst = dst[1:]
			}
			copy(dst[copy(dst, a):], b)
		}
		out, buf = buf, out
	}
	return out
}

// before orders reclaims by (Reclaim, Warning, Restore).
func (p *Preemption) before(q *Preemption) bool {
	if p.Reclaim != q.Reclaim {
		return p.Reclaim < q.Reclaim
	}
	if p.Warning != q.Warning {
		return p.Warning < q.Warning
	}
	return p.Restore < q.Restore
}

// SpotSchedule samples a deterministic spot revocation schedule over a
// horizon: whole-pool capacity reclaims arriving as a Poisson process
// at ratePerHour, each announced warning ahead and healed down later
// (replacement capacity won back at the spot price).  The same seed
// always yields the same schedule, so spot runs stay reproducible and
// cacheable; ratePerHour == 0 returns an empty schedule.
func SpotSchedule(horizon units.Duration, procs int, ratePerHour float64, warning, down units.Duration, seed int64) ([]Preemption, error) {
	if err := validateSpotArgs(horizon, procs, ratePerHour, warning, down); err != nil {
		return nil, err
	}
	if ratePerHour == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Preemption
	var t units.Duration
	for {
		gap := units.Duration(rng.ExpFloat64() / ratePerHour * units.SecondsPerHour)
		t += gap
		if t >= horizon {
			return out, nil
		}
		w := warning
		if w > t {
			w = t
		}
		out = append(out, Preemption{Reclaim: t, Processors: procs, Warning: w, Restore: t + down})
		t += down
	}
}
