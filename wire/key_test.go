package wire

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/store"
	"repro/internal/units"
)

// TestCanonicalRunKeyCoverage walks every struct reachable from the
// key's (spec, plan) pair and fails on the two ways a JSON key can
// skip a field silently: an unexported field, which encoding/json
// never prints, and a json tag, where "-" drops the field and a rename
// can collide with a sibling's name and drop both.  The one sanctioned
// tag is the json:"-" on Plan.Recorder, a pure observer, and it must
// stay: without it a traced plan would key apart from its untraced
// twin.
func TestCanonicalRunKeyCoverage(t *testing.T) {
	plan := reflect.TypeOf(core.Plan{})
	if f, ok := plan.FieldByName("Recorder"); !ok || f.Tag != `json:"-"` {
		t.Errorf(`core.Plan.Recorder must be tagged json:"-"`)
	}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(typ.Elem())
			return
		case reflect.Struct:
		default:
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, tagged := f.Tag.Lookup("json")
			switch {
			case !f.IsExported():
				t.Errorf("%s.%s is unexported, so the cache key never sees it", typ, f.Name)
			case typ == plan && f.Name == "Recorder":
				// The sanctioned observer, checked above.
			case tagged:
				t.Errorf("%s.%s carries json tag %q; the cache key must print every field under its Go name", typ, f.Name, tag)
			default:
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(montage.Spec{}))
	walk(plan)
}

// TestCanonicalRunKeyStability pins the key space.  An explicit
// default and an elided one are the same run, so they share a key;
// distinct plans and specs never do; and the content addresses of the
// golden fixtures are pinned, because disk stores written by earlier
// builds are addressed by them: a change to the key's bytes orphans
// every stored entry and must be deliberate.
func TestCanonicalRunKeyStability(t *testing.T) {
	elided := v2Fixtures["baseline"]
	explicit := Scenario{
		Version:  2,
		Workflow: WorkflowSection{Name: "montage-1deg"},
		Storage:  &StorageSection{Mode: "regular", BandwidthMbps: 10},
		Pricing:  &PricingSection{Billing: "on-demand", Granularity: "per-second"},
		Spot:     &SpotSection{},
		Recovery: &RecoverySection{},
	}
	if runKey(t, elided) != runKey(t, explicit) {
		t.Error("explicit and elided defaults got distinct keys")
	}
	spec, plan, err := elided.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	empty := plan
	empty.Outages, empty.Preemptions = []exec.Outage{}, []exec.Preemption{}
	if CanonicalRunKeyV2(spec, empty) != CanonicalRunKeyV2(spec, plan) {
		t.Error("empty and nil outage and preemption lists got distinct keys")
	}
	requireDistinctKeys(t, elided, map[string]func(Scenario) (Scenario, error){
		"plan": func(s Scenario) (Scenario, error) { return s.With("fleet.processors", 4) },
		"spec": func(s Scenario) (Scenario, error) { return s.With("workflow.name", "2deg") },
	})
	// These two echo byte-identically (the custom mosaic takes the
	// preset's name) but run 208 and 203 tasks, so the key is the
	// resolved pair, never the echo.
	custom := Scenario{Version: 2, Workflow: WorkflowSection{Degrees: 1}}
	preset := Scenario{Version: 2, Workflow: WorkflowSection{Name: "1deg", CCR: 0.05}}
	if runKey(t, custom) == runKey(t, preset) {
		t.Error("a 1-degree custom mosaic shares a key with the 1deg preset at CCR 0.05")
	}
	for name, want := range map[string]string{
		"baseline": "479e87d88befd47f426f60644d46cf613aa9e7d597a81efab86f22d7bd59ddc1",
		"full":     "5d8d7f35ef98e6f09b9d87a8ff2e78bbcf2ce188e1f6350a60f17cc0794cc4df",
		"ccr":      "3d4543c8f530ea1c69fd09b62af20aca7a9771d1115bd7add7c0bec604777bd1",
	} {
		if got := store.HashKey(runKey(t, v2Fixtures[name])); got != want {
			t.Errorf("%s: content address %s, want %s (stored entries would be orphaned)", name, got, want)
		}
	}
}

// TestCanonicalRunKeyPanicsOnUnencodablePlan: a plan JSON cannot
// encode, which only Go code outside Resolve can build, panics rather
// than sharing a fallback key with unrelated runs.
func TestCanonicalRunKeyPanicsOnUnencodablePlan(t *testing.T) {
	spec, plan, err := v2Fixtures["baseline"].Resolve()
	if err != nil {
		t.Fatal(err)
	}
	plan.Bandwidth = units.Bandwidth(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Error("an infinite bandwidth got a key")
		}
	}()
	CanonicalRunKeyV2(spec, plan)
}

func runKey(t *testing.T, s Scenario) string {
	t.Helper()
	spec, plan, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return CanonicalRunKeyV2(spec, plan)
}

// requireDistinctKeys fails every mutation of base that keeps base's
// cache key: the cache would serve one scenario's document for the
// other.
func requireDistinctKeys(t *testing.T, base Scenario, mutations map[string]func(Scenario) (Scenario, error)) {
	t.Helper()
	baseKey := runKey(t, base)
	for name, mutate := range mutations {
		mutated, err := mutate(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mspec, mplan, err := mutated.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if CanonicalRunKeyV2(mspec, mplan) == baseKey {
			t.Errorf("scenarios differing only in %s share a cache key", name)
		}
	}
}

// TestCanonicalRunKeySpotDistinct is the cache-collision guard of the
// spot knobs: a spot scenario never shares a key with its on-demand
// twin, and every spot knob -- and the checkpoint interval, which
// travels outside the spot section -- perturbs the key.
func TestCanonicalRunKeySpotDistinct(t *testing.T) {
	spot := Scenario{
		Version:  2,
		Workflow: WorkflowSection{Name: "1deg"},
		Fleet:    &FleetSection{Processors: 16, Reliable: 4},
		Spot:     &SpotSection{RatePerHour: 1.5, Seed: 7, Discount: 0.65},
	}
	requireDistinctKeys(t, spot, map[string]func(Scenario) (Scenario, error){
		"no spot market": func(s Scenario) (Scenario, error) {
			s.Spot, s.Fleet = nil, &FleetSection{Processors: 16}
			return s, nil
		},
		"rate":       func(s Scenario) (Scenario, error) { return s.With("spot.rate_per_hour", 3) },
		"warning":    func(s Scenario) (Scenario, error) { return s.With("spot.warning_seconds", 60) },
		"downtime":   func(s Scenario) (Scenario, error) { return s.With("spot.downtime_seconds", 300) },
		"seed":       func(s Scenario) (Scenario, error) { return s.With("spot.seed", 8) },
		"discount":   func(s Scenario) (Scenario, error) { return s.With("spot.discount", 0.5) },
		"on-demand":  func(s Scenario) (Scenario, error) { return s.With("fleet.reliable", 8) },
		"checkpoint": func(s Scenario) (Scenario, error) { return s.With("recovery.checkpoint_seconds", 300) },
	})
}

// TestCanonicalRunKeyNewKnobsDistinct: every knob added in this schema
// revision must perturb the key, or the cache would serve one
// scenario's document for another.
func TestCanonicalRunKeyNewKnobsDistinct(t *testing.T) {
	base := Scenario{
		Version:  2,
		Workflow: WorkflowSection{Name: "1deg"},
		Fleet:    &FleetSection{Processors: 16, Reliable: 4},
		Spot:     &SpotSection{RatePerHour: 1, Seed: 1, Discount: 0.5},
		Recovery: &RecoverySection{CheckpointSeconds: 300, CheckpointOverheadSeconds: 10, CheckpointBytes: 1e8},
	}
	requireDistinctKeys(t, base, map[string]func(Scenario) (Scenario, error){
		"checkpoint bytes": func(s Scenario) (Scenario, error) { return s.With("recovery.checkpoint_bytes", 2e8) },
		"workflow ccr":     func(s Scenario) (Scenario, error) { return s.With("workflow.ccr", 0.3) },
		"cpu rate":         func(s Scenario) (Scenario, error) { return s.With("pricing.cpu_per_hour", 0.2) },
		"granularity":      func(s Scenario) (Scenario, error) { return s.With("pricing.granularity", "per-hour") },
		"fleet split":      func(s Scenario) (Scenario, error) { return s.With("fleet.reliable", 8) },
		"placement policy": func(s Scenario) (Scenario, error) { return s.With("policies.placement", "heft") },
		"victim policy":    func(s Scenario) (Scenario, error) { return s.With("policies.victim", "cost-aware") },
		"ckpt policy":      func(s Scenario) (Scenario, error) { return s.With("policies.checkpoint", "adaptive") },
		"sizing policy":    func(s Scenario) (Scenario, error) { return s.With("policies.sizing", "half") },
	})
}
