package exec

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/datamgmt"
	"repro/internal/montage"
	"repro/internal/units"
)

// The sampled reclaim stream: a run that samples a spot market window
// by window must fire exactly the reclaims, and so produce exactly the
// metrics, that the same market's whole schedule passed as explicit
// Preemptions does.

// windowHorizon is the spot horizon core gives a workflow: twice its
// serial compute and transfer time, plus an hour.
func windowHorizon(wf *dag.Workflow) units.Duration {
	transfer := units.Duration(float64(wf.TotalFileBytes()) / DefaultBandwidth.BytesPerSecond())
	return 2*(wf.TotalRuntime()+transfer) + units.Duration(units.SecondsPerHour)
}

// sampledAndExplicit runs cfg once sampling market and once from the
// whole schedule SpotScheduleInstances gives it, and returns both
// results and the whole schedule.
func sampledAndExplicit(t *testing.T, wf *dag.Workflow, cfg Config, market SpotMarket) (sampled, explicit Metrics, full []Preemption) {
	t.Helper()
	procs := cfg.Processors
	if procs == 0 {
		procs = wf.MaxParallelism()
	}
	full, err := SpotScheduleInstances(market.Horizon, procs-cfg.OnDemandProcessors,
		market.RatePerHour, market.Warning, market.Downtime, market.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg
	s.Spot = market
	if sampled, err = Run(wf, s); err != nil {
		t.Fatalf("sampled: %v", err)
	}
	e := cfg
	e.Preemptions = full
	if explicit, err = Run(wf, e); err != nil {
		t.Fatalf("explicit: %v", err)
	}
	return sampled, explicit, full
}

// countSamples counts, while f runs, the reclaims the runs sample and
// the windows they sample them in.
func countSamples(f func()) (reclaims, windows int) {
	sampleHook = func(n int) {
		reclaims += n
		windows++
	}
	defer func() { sampleHook = nil }()
	f()
	return reclaims, windows
}

// TestSampledStreamMatchesFullSchedule runs the presets in every mode,
// on uniform and mixed fleets of 1, 8 and 64 processors, at four
// reclaim rates, with and without checkpoints: 360 runs, each sampled
// and then replayed from its whole schedule.
func TestSampledStreamMatchesFullSchedule(t *testing.T) {
	markets := []struct{ rate, down float64 }{{0.1, 600}, {1, 600}, {10, 600}, {100, 60}}
	fleets := []struct{ procs, reliable int }{{1, 0}, {8, 0}, {8, 1}, {64, 0}, {64, 1}}
	recoveries := []Recovery{{}, {Checkpoint: true, Interval: 300, Overhead: 5}}
	var runs, fullReclaims int
	sampled, windows := countSamples(func() {
		for _, spec := range []montage.Spec{montage.OneDegree(), montage.TwoDegree(), montage.FourDegree()} {
			wf, err := montage.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			horizon := windowHorizon(wf)
			for _, mode := range datamgmt.Modes() {
				for _, fl := range fleets {
					for _, mk := range markets {
						for _, rec := range recoveries {
							runs++
							cfg := Config{Mode: mode, Processors: fl.procs, OnDemandProcessors: fl.reliable, Recovery: rec}
							market := SpotMarket{RatePerHour: mk.rate, Warning: 120, Downtime: units.Duration(mk.down), Seed: int64(runs), Horizon: horizon}
							got, want, full := sampledAndExplicit(t, wf, cfg, market)
							fullReclaims += len(full)
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s %v, %d procs (%d reliable), %g/h, checkpoint %v: sampled run differs from its whole schedule:\n got %+v\nwant %+v",
									wf.Name, mode, fl.procs, fl.reliable, mk.rate, rec.Checkpoint, got, want)
							}
						}
					}
				}
			}
		}
	})
	if runs != 360 {
		t.Fatalf("ran %d plans, want 360", runs)
	}
	t.Logf("%d runs sampled %d reclaims in %d windows; their whole schedules hold %d", runs, sampled, windows, fullReclaims)
	if sampled >= fullReclaims {
		t.Errorf("windows sampled %d reclaims, no fewer than the whole schedules' %d", sampled, fullReclaims)
	}
}

// TestPropSampledStreamMatchesFullSchedule is the same equivalence over
// random layered DAGs, whose horizons of one to a few hours put the
// doubling's cap inside the run.
func TestPropSampledStreamMatchesFullSchedule(t *testing.T) {
	f := func(seed int64, procsRaw, modeRaw, rateRaw uint8, ckpt bool) bool {
		wf := dagtest.RandomLayered(seed)
		cfg := Config{Mode: datamgmt.Modes()[int(modeRaw)%3], Processors: int(procsRaw)%4 + 1}
		if ckpt {
			cfg.Recovery = Recovery{Checkpoint: true, Interval: 60, Overhead: 2}
		}
		market := SpotMarket{RatePerHour: float64(rateRaw%100) + 1, Warning: 30, Downtime: 120, Seed: seed, Horizon: windowHorizon(wf)}
		got, want, _ := sampledAndExplicit(t, wf, cfg, market)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropTruncatedScheduleIsIdentical: cutting an explicit schedule
// after its last reclaim at or before the makespan leaves the result
// byte-identical -- no later reclaim fires.  A cut keeps at least one
// reclaim: an empty schedule would turn on the exact CPU accounting of
// reclaim-free runs, which is why that branch is keyed to the whole
// schedule and not to the reclaims a run fires.
func TestPropTruncatedScheduleIsIdentical(t *testing.T) {
	f := func(seed int64, procsRaw, modeRaw, rateRaw uint8) bool {
		wf := dagtest.RandomLayered(seed)
		procs := int(procsRaw)%4 + 1
		full, err := SpotScheduleInstances(windowHorizon(wf), procs, float64(rateRaw%20)+0.5, 30, 120, seed)
		if err != nil || len(full) == 0 {
			return err == nil
		}
		cfg := Config{Mode: datamgmt.Modes()[int(modeRaw)%3], Processors: procs, Preemptions: full}
		want, err := Run(wf, cfg)
		if err != nil {
			return false
		}
		cut := 1
		for cut < len(full) && full[cut].Reclaim <= want.Makespan {
			cut++
		}
		cfg.Preemptions = full[:cut]
		got, err := Run(wf, cfg)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSampledRunKeysExactCPUToWholeSchedule: a run whose first window
// holds no reclaim still skips the exact CPU accounting when a later
// window would hold one, and takes it when the whole schedule is empty.
func TestSampledRunKeysExactCPUToWholeSchedule(t *testing.T) {
	wf := dagtest.RandomLayered(3)
	for _, rate := range []float64{1e-3, 1e-9} {
		market := SpotMarket{RatePerHour: rate, Warning: 30, Downtime: 120, Seed: 1, Horizon: units.Duration(1e6 * units.SecondsPerHour)}
		cfg := Config{Mode: datamgmt.Regular, Processors: 2}
		got, want, full := sampledAndExplicit(t, wf, cfg, market)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rate %g/h (%d reclaims): sampled run differs from its whole schedule", rate, len(full))
		}
		if got := market.anyReclaim(2); got != (len(full) > 0) {
			t.Errorf("rate %g/h: anyReclaim = %v with %d reclaims in the whole schedule", rate, got, len(full))
		}
	}
}

// TestSpotMarketValidation: a sampled market is checked over its whole
// horizon before the run, and may not be combined with explicit
// Preemptions.
func TestSpotMarketValidation(t *testing.T) {
	wf := tiny(t)
	market := SpotMarket{RatePerHour: 1, Warning: 120, Downtime: 600, Seed: 1, Horizon: 3600}
	if _, err := Run(wf, Config{Mode: datamgmt.Regular, Processors: 2, Spot: market,
		Preemptions: []Preemption{{Reclaim: 1, Processors: 1, Restore: 2}}}); err == nil {
		t.Error("a sampled market together with explicit Preemptions accepted")
	}
	if _, err := Run(wf, Config{Mode: datamgmt.Regular, Processors: 2, OnDemandProcessors: 2, Spot: market}); err == nil {
		t.Error("a sampled market on a fleet with no spot capacity accepted")
	}
	// The bound holds over the whole horizon, although this run ends
	// long before a window reaches it.
	huge := market
	huge.RatePerHour, huge.Downtime, huge.Horizon = 1e12, 1e-3, units.Duration(177*units.SecondsPerHour)
	if _, err := Run(wf, Config{Mode: datamgmt.Regular, Processors: 2, Spot: huge}); !errors.Is(err, ErrSpotScheduleTooLarge) {
		t.Errorf("schedule past the bound over its horizon: err = %v, want ErrSpotScheduleTooLarge", err)
	}
	if _, err := Run(wf, Config{Mode: datamgmt.Regular, Processors: 2, Spot: market}); err != nil {
		t.Errorf("valid market refused: %v", err)
	}
}

// TestSpotDowntimeResolution pins the refusal of a downtime below the
// clock's resolution at the edge: a plan is refused exactly when some
// instant t below the horizon has t+downtime == t.  Rounding is half to
// even, so at exactly half the spacing only an even-mantissa instant
// absorbs the downtime.
func TestSpotDowntimeResolution(t *testing.T) {
	half := math.Ldexp(1, -38) // half the spacing in [2^15, 2^16)
	above := math.Nextafter(half, 1)
	for _, c := range []struct {
		horizon, down float64
		refused       bool
	}{
		// 1-degree's horizon at 10 Mbps.
		{46057, 1e-12, true},
		{46057, 1e-11, false},
		// Below 46057 the largest instant has an odd mantissa, the next
		// one an even mantissa that absorbs exactly half a spacing.
		{46057, half, true},
		{46057, above, false},
		// Just above 2^16 the largest instant is 2^16 itself: its
		// spacing is 2^-36, and its mantissa is even.
		{65536 + math.Ldexp(1, -36), 2 * half, true},
		{65536 + math.Ldexp(1, -36), math.Nextafter(2*half, 1), false},
		// At exactly 2^16 every instant below has the smaller spacing.
		{65536, half, true},
		{65536, above, false},
	} {
		m := SpotMarket{RatePerHour: 1, Warning: 0, Downtime: units.Duration(c.down), Seed: 1, Horizon: units.Duration(c.horizon)}
		err := m.validate(4)
		if got := errors.Is(err, ErrSpotDowntimeTooShort); got != c.refused {
			t.Errorf("horizon %v, downtime %g: refused = %v (%v), want %v", c.horizon, c.down, got, err, c.refused)
		}
		// Brute force over the instants the sampler can reach near the
		// horizon: the refusal holds exactly when one absorbs the downtime.
		absorbs := false
		for i, x := 0, math.Nextafter(c.horizon, 0); i < 64; i, x = i+1, math.Nextafter(x, 0) {
			absorbs = absorbs || x+c.down == x
		}
		if absorbs != c.refused {
			t.Errorf("horizon %v, downtime %g: some instant absorbs it = %v, want %v", c.horizon, c.down, absorbs, c.refused)
		}
	}
	if err := (SpotMarket{RatePerHour: 1, Downtime: 1e-12, Horizon: 46057}).validate(4); err == nil ||
		!errors.Is(err, ErrSpotDowntimeTooShort) || !strings.Contains(err.Error(), "spot.downtime_seconds") || !strings.Contains(err.Error(), "12.8 h") {
		t.Errorf("refusal = %v; want it to name spot.downtime_seconds and the horizon", err)
	}
}
