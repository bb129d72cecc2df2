package wire

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/montage"
	"repro/internal/store"
)

// CanonicalRunKeyV2 derives the stable cache key of a resolved
// scenario's (spec, plan) pair: the encoding/json encoding of the spec
// and the canonical plan.  Simulations are deterministic functions of
// exactly these two values, so equal keys guarantee byte-identical
// result documents; the server's result cache, request coalescing, disk
// store and shard ring all key on it.
//
// Every exported field reachable from the pair is in the key by
// construction, and JSON prints ints, names and floats (in their
// shortest round-trip form) injectively, so two pairs share a key
// exactly when they describe the same run.  The one deliberate
// omission is the plan's Recorder, a pure observer tagged json:"-";
// TestCanonicalRunKeyCoverage fails any other field JSON would skip.
//
// The key's bytes are the addresses of stored entries.  A change to
// them orphans the entries written before it: they are never read
// again, and as the oldest files they are the first evicted under the
// store's byte bound.
//
// Resolve returns only plans JSON can encode.  A plan built in Go
// outside it with a non-finite number or an unknown mode panics here:
// a shared fallback key would coalesce unrelated requests.
func CanonicalRunKeyV2(spec montage.Spec, plan core.Plan) string {
	b, err := json.Marshal(struct {
		Spec montage.Spec
		Plan core.Plan
	}{spec, plan.Canonical()})
	if err != nil {
		panic("wire: unencodable run key: " + err.Error())
	}
	return string(b)
}

// RunKeyHashV2 is the content address of a resolved v2 scenario:
// store.HashKey over CanonicalRunKeyV2.  Equal hashes mean
// byte-identical result documents (modulo the astronomically unlikely
// SHA-256 collision, which the store's recorded-key check would still
// catch).
func RunKeyHashV2(spec montage.Spec, plan core.Plan) string {
	return store.HashKey(CanonicalRunKeyV2(spec, plan))
}
