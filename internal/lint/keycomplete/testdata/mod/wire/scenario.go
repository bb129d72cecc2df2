// Package wire is the fixture scenario document: two resolved knobs,
// one annotated observer, and one field Resolve never reads.
package wire

// Plan is the fixture's resolved run, whose encoding is the cache key.
type Plan struct {
	Nodes int
	Seed  int64
}

// Scenario is the wire document lowered by Resolve.
type Scenario struct {
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`
	// Label is accepted on the wire but never resolved into the plan,
	// so it can never reach the canonical key -- keycomplete must name
	// it.
	Label string `json:"label,omitempty"` // want `wire\.Scenario\.Label is never read while resolving Scenario`
	// Trace is the canonical exclusion example from the annotation
	// grammar.
	//repro:nokey trace — observer only
	Trace bool `json:"trace,omitempty"`
}

// Resolve lowers the document to an executable plan.
func (s Scenario) Resolve() (Plan, error) {
	plan := Plan{Nodes: s.Nodes}
	plan.Seed = resolveSeed(s)
	return plan, nil
}

// resolveSeed exists so the fixture exercises the call-closure walk:
// the Seed read happens one call away from Resolve.
func resolveSeed(s Scenario) int64 {
	return s.Seed
}
