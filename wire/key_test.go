package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/lint/nokey"
	"repro/internal/montage"
	"repro/internal/policy"
)

// TestCanonicalRunKeyCoverage forces key maintenance field by field:
// every exported field of every struct feeding the canonical key must
// either appear as a selector in key.go or carry the //repro:nokey
// annotation the keycomplete analyzer also reads.  Unlike the retired
// reflect.NumField count guards, a failure names the missing field --
// and a field that is both annotated and encoded fails too, because a
// stale exclusion is as wrong as a missing encoding.
func TestCanonicalRunKeyCoverage(t *testing.T) {
	fset := token.NewFileSet()
	encoded := keyFileSelectors(t, fset)

	for _, tc := range []struct {
		typ reflect.Type
		dir string
	}{
		{reflect.TypeOf(core.Plan{}), "../internal/core"},
		{reflect.TypeOf(core.SpotPlan{}), "../internal/core"},
		{reflect.TypeOf(montage.Spec{}), "../internal/montage"},
		{reflect.TypeOf(exec.Recovery{}), "../internal/exec"},
		{reflect.TypeOf(cost.Pricing{}), "../internal/cost"},
		{reflect.TypeOf(policy.Bundle{}), "../internal/policy"},
	} {
		name := tc.typ.Name()
		anns, err := nokey.ParseDir(fset, tc.dir)
		if err != nil {
			t.Fatalf("%s: parsing %s: %v", name, tc.dir, err)
		}
		for _, p := range anns.Problems() {
			t.Errorf("%s: %s", fset.Position(p.Pos), p.Message)
		}
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			_, excluded := anns.Excluded(name, f.Name)
			switch {
			case excluded && encoded[f.Name]:
				t.Errorf("%s.%s carries //repro:nokey but key.go references it; drop the stale annotation or the encoding", name, f.Name)
			case !excluded && !encoded[f.Name]:
				t.Errorf("%s.%s is not encoded in CanonicalRunKeyV2 and has no //repro:nokey annotation; extend the key or annotate the exclusion", name, f.Name)
			}
		}
	}
}

// keyFileSelectors collects every selector name key.go mentions -- the
// syntactic approximation of "encoded" this test shares with the
// keycomplete analyzer's type-checked version.
func keyFileSelectors(t *testing.T, fset *token.FileSet) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(fset, "key.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			out[sel.Sel.Name] = true
		}
		return true
	})
	return out
}

// TestCanonicalRunKeyStability pins the key space.  An explicit
// default and an elided one are the same run, so they share a key;
// distinct plans and specs never do; and the content addresses of the
// golden fixtures are frozen, because disk stores written by earlier
// builds are addressed by them.
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
	requireDistinctKeys(t, elided, map[string]func(Scenario) (Scenario, error){
		"plan": func(s Scenario) (Scenario, error) { return s.With("fleet.processors", 4) },
		"spec": func(s Scenario) (Scenario, error) { return s.With("workflow.name", "2deg") },
	})
	for name, want := range map[string]string{
		"baseline": "b4a54d1193157017eb424edd3ff4dfa786a59973cf5deac69cdb1c68f2935362",
		"full":     "9bfd9da9c3bf48fd4a86de8310aa64812df9125b09b6c5dbd3d5791e26819a63",
		"ccr":      "1f95c1be5b5a5a0bb7360488d055fba5ead017a4ea811eeade1e50c56722ab80",
	} {
		if got := KeyHash(runKey(t, v2Fixtures[name])); got != want {
			t.Errorf("%s: content address %s, want %s (stored entries would be orphaned)", name, got, want)
		}
	}
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
