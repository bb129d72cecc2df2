package exec

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/datamgmt"
	"repro/internal/obs"
	"repro/internal/units"
)

// drain pops every queued event, returning their aux tags in firing
// order and advancing the runner's clock as the loop does.
func drain(r *runner) []uint32 {
	var got []uint32
	for len(r.queue) > 0 {
		ev := r.queue.pop()
		r.now = ev.at
		got = append(got, ev.aux)
	}
	return got
}

func TestEventQueueOrdersByTime(t *testing.T) {
	var r runner
	r.post(30, evDispatch, -1, 3)
	r.post(10, evDispatch, -1, 1)
	r.post(20, evDispatch, -1, 2)
	got := drain(&r)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if r.now != 30 {
		t.Errorf("clock = %v, want 30", r.now)
	}
}

func TestEventQueueTieBreakIsFIFO(t *testing.T) {
	var r runner
	for i := uint32(0); i < 10; i++ {
		r.post(5, evDispatch, -1, i)
	}
	for i, v := range drain(&r) {
		if v != uint32(i) {
			t.Fatalf("same-time events fired out of order at %d: got %d", i, v)
		}
	}
}

// Events queued while the queue drains (the executor's dominant
// pattern: every handler schedules its successors) keep the order: each
// link of a cascade queues the next link and a same-instant straggler,
// which fires right after that next link.
func TestEventQueueInterleavedPushes(t *testing.T) {
	var r runner
	r.post(0, evDispatch, -1, 0)
	var got []uint32
	for len(r.queue) > 0 {
		ev := r.queue.pop()
		r.now = ev.at
		got = append(got, ev.aux)
		if ev.aux != 99 && ev.aux < 4 {
			r.post(r.now+10, evDispatch, -1, ev.aux+1)
			r.post(r.now+10, evDispatch, -1, 99)
		}
	}
	want := []uint32{0, 1, 99, 2, 99, 3, 99, 4, 99}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if r.now != 40 {
		t.Errorf("end = %v, want 40", r.now)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var r runner
	r.now = 10
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	r.post(5, evDispatch, -1, 0)
}

// Property: for any set of event times the queue fires them in sorted
// order, ties in scheduling order, and ends at the maximum time.
func TestPropEventQueueSortsTimes(t *testing.T) {
	f := func(raw []uint16) bool {
		var r runner
		var max units.Duration
		for i, v := range raw {
			at := units.Duration(v % 64)
			if at > max {
				max = at
			}
			r.post(at, evDispatch, -1, uint32(i))
		}
		var prev event
		for i := 0; len(r.queue) > 0; i++ {
			ev := r.queue.pop()
			if i > 0 && ev.before(&prev) {
				return false
			}
			if i > 0 && ev.at == prev.at && ev.aux < prev.aux {
				return false
			}
			prev = ev
		}
		return len(raw) == 0 || prev.at == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLoopClockFollowsEvents checks that every handler sees the clock at
// its own event's time: the tiny chain's records land exactly on the
// stage-in, compute and stage-out boundaries.
func TestLoopClockFollowsEvents(t *testing.T) {
	rec := obs.NewRecorder(0)
	if _, err := Run(tiny(t), Config{Mode: datamgmt.Regular, Processors: 1, Bandwidth: tinyBW, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		obs.KindStart:  {10, 20},
		obs.KindFinish: {20, 40},
	}
	got := map[string][]float64{}
	for _, e := range rec.Events() {
		if _, ok := want[e.Kind]; ok {
			got[e.Kind] = append(got[e.Kind], e.T)
		}
	}
	for kind, ts := range want {
		if len(got[kind]) != len(ts) {
			t.Fatalf("%s events at %v, want %v", kind, got[kind], ts)
		}
		for i := range ts {
			if got[kind][i] != ts[i] {
				t.Errorf("%s events at %v, want %v", kind, got[kind], ts)
			}
		}
	}
}

func TestLoopCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, tiny(t), Config{Mode: datamgmt.Regular, Processors: 1, Bandwidth: tinyBW})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

// kindsAt lists the timeline's event kinds recorded at simulated time
// at, in record order.
func kindsAt(rec *obs.Recorder, at float64) []string {
	var out []string
	for _, e := range rec.Events() {
		if e.T == at {
			out = append(out, e.Kind)
		}
	}
	return out
}

// TestReclaimStreamRanking pins where a streamed reclaim fires among the
// queued events of its instant: after the start event (queued first),
// before everything queued later.
func TestReclaimStreamRanking(t *testing.T) {
	t.Run("after the start event", func(t *testing.T) {
		// The VMs boot at 5 and a reclaim lands at 5: the start event's
		// stage-in reservation is recorded before the revocation.
		rec := obs.NewRecorder(0)
		_, err := Run(tiny(t), Config{
			Mode: datamgmt.Regular, Processors: 2, Bandwidth: tinyBW, VMStartup: 5,
			Preemptions: []Preemption{{Reclaim: 5, Processors: 1, Restore: 50}},
			Recorder:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := kindsAt(rec, 5)
		if len(got) < 2 || got[0] != obs.KindTransfer || got[1] != obs.KindRevoke {
			t.Errorf("kinds at t=5: %v, want the stage-in transfer before the revoke", got)
		}
	})
	t.Run("before later events", func(t *testing.T) {
		// The inputs are resident at 10, the same instant a reclaim
		// lands: the revocation fires before the task is readied.
		rec := obs.NewRecorder(0)
		_, err := Run(tiny(t), Config{
			Mode: datamgmt.Regular, Processors: 2, Bandwidth: tinyBW,
			Preemptions: []Preemption{{Reclaim: 10, Processors: 1, Restore: 50}},
			Recorder:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := kindsAt(rec, 10)
		if len(got) < 3 || got[0] != obs.KindRevoke || got[1] != obs.KindResize || got[2] != obs.KindReady {
			t.Errorf("kinds at t=10: %v, want revoke, resize, then ready", got)
		}
	})
}
