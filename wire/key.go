package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/montage"
)

// CanonicalRunKeyV2 derives the stable cache key of a resolved
// scenario's (spec, plan) pair.  Simulations are deterministic functions
// of exactly these two values, so equal keys guarantee byte-identical
// result documents; the server's result cache, request coalescing, disk
// store and shard ring all key on it.
//
// The encoding is explicit and field-by-field -- no reflective %#v,
// whose output silently collapses distinct values (and drifts across Go
// versions).  Every Plan field must appear here or carry a
// //repro:nokey annotation; TestCanonicalRunKeyCoverage and the
// keycomplete analyzer fail any Plan, Spec, SpotPlan, Recovery, Pricing
// or Bundle change that forgets to extend the key.  The "v2|" prefix
// and every byte after it are the addresses of stored entries, so the
// output must never change without bumping the store's wire version.
func CanonicalRunKeyV2(spec montage.Spec, plan core.Plan) string {
	p := plan.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "v2|spec{name=%q deg=%g img=%d diff=%d cpu=%g mosaic=%d ccr=%g bw=%g seed=%d}",
		spec.Name, spec.Degrees, spec.Images, spec.Diffs, float64(spec.TotalCPU),
		int64(spec.MosaicBytes), spec.TargetCCR, spec.Bandwidth.BytesPerSecond(), spec.Seed)
	fmt.Fprintf(&b, "|plan{mode=%s procs=%d billing=%s bw=%g curve=%t vmstart=%g policy=%s failp=%g fails=%d",
		p.Mode, p.Processors, p.Billing, p.Bandwidth.BytesPerSecond(), p.RecordCurve,
		float64(p.VMStartup), p.Policy, p.FailureProb, p.FailureSeed)
	fmt.Fprintf(&b, " pricing{store=%g in=%g out=%g cpu=%g gran=%s}",
		float64(p.Pricing.StoragePerGBMonth), float64(p.Pricing.TransferInPerGB),
		float64(p.Pricing.TransferOutPerGB), float64(p.Pricing.CPUPerHour), p.Pricing.Granularity)
	b.WriteString(" outages[")
	for _, o := range p.Outages {
		fmt.Fprintf(&b, "(%g,%g)", float64(o.Start), float64(o.End))
	}
	b.WriteString("] preempt[")
	for _, pre := range p.Preemptions {
		fmt.Fprintf(&b, "(%g,%d,%g,%g)", float64(pre.Reclaim), pre.Processors, float64(pre.Warning), float64(pre.Restore))
	}
	fmt.Fprintf(&b, "] recovery{ckpt=%t iv=%g oh=%g bytes=%d}",
		p.Recovery.Checkpoint, float64(p.Recovery.Interval), float64(p.Recovery.Overhead), int64(p.Recovery.Bytes))
	fmt.Fprintf(&b, " spot{rate=%g warn=%g down=%g seed=%d disc=%g ondemand=%d}",
		p.Spot.RatePerHour, float64(p.Spot.Warning), float64(p.Spot.Downtime),
		p.Spot.Seed, p.Spot.Discount, p.Spot.OnDemand)
	fmt.Fprintf(&b, " policies{place=%s victim=%s ckpt=%s size=%s}}",
		p.Policies.Placement, p.Policies.Victim, p.Policies.Checkpoint, p.Policies.Sizing)
	return b.String()
}

// KeyHash is the content address of a canonical run key: its SHA-256,
// hex-encoded.  The disk store names entry files with it and the shard
// ring positions keys on the hash circle with it, so every replica --
// and every restart -- derives the same address for the same scenario.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// RunKeyHashV2 is the content address of a resolved v2 scenario:
// KeyHash over CanonicalRunKeyV2.  Equal hashes mean byte-identical
// result documents (modulo the astronomically unlikely SHA-256
// collision, which the store's recorded-key check would still catch).
func RunKeyHashV2(spec montage.Spec, plan core.Plan) string {
	return KeyHash(CanonicalRunKeyV2(spec, plan))
}
