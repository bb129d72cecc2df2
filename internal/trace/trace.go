// Package trace models the per-task runtime and file-size profiles that
// the paper took "from real runs of the workflow".  Since the original
// execution traces are not available, this package provides the closest
// synthetic equivalent: deterministic per-task-type base values with
// seeded, bounded jitter, plus calibration helpers that scale a sampled
// population so its aggregate hits a published anchor (total CPU-hours,
// total bytes, or a target CCR).
//
// Determinism matters: every simulator run in the repository must be
// bit-reproducible, so samplers are seeded explicitly and never touch
// global randomness.
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/units"
)

// Profile describes the distribution of a scalar quantity (a runtime in
// seconds or a file size in bytes) for one task type.
type Profile struct {
	Base   float64 // mean value
	Jitter float64 // relative half-width; samples fall in Base*(1±Jitter)
}

// Sampler draws deterministic values from Profiles.
type Sampler struct {
	rng *rand.Rand
}

// NewSampler returns a sampler seeded deterministically.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one value from p: uniform on Base*(1±Jitter).  The result
// is never negative.
func (s *Sampler) Sample(p Profile) float64 {
	if p.Jitter == 0 {
		return p.Base
	}
	v := p.Base * (1 + p.Jitter*(2*s.rng.Float64()-1))
	if v < 0 {
		v = 0
	}
	return v
}

// SampleBytes draws a file size, rounded to whole bytes.
func (s *Sampler) SampleBytes(p Profile) units.Bytes {
	return units.BytesOf(s.Sample(p))
}

// CalibrationFactor returns the multiplier that makes sum(values) equal
// target.  It returns an error when the population is degenerate.
func CalibrationFactor(values []float64, target float64) (float64, error) {
	var sum float64
	for _, v := range values {
		sum += v
	}
	if sum <= 0 {
		return 0, fmt.Errorf("trace: cannot calibrate zero-sum population to %v", target)
	}
	if target <= 0 {
		return 0, fmt.Errorf("trace: non-positive calibration target %v", target)
	}
	return target / sum, nil
}
