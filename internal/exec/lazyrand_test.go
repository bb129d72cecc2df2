package exec

import (
	"math"
	"math/rand"
	"testing"
)

// lazySourceSeeds are the seeds the lazy source is checked on: the
// edges of math/rand's seed reduction (0 and every multiple of 2^31−1
// map to 89482311), the int64 extremes, the sampler's instance stride,
// and 1,200 seeds from a fixed generator.
func lazySourceSeeds() []int64 {
	const p = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, -2,
		p, -p, 2 * p, -2 * p, p - 1, -(p - 1), p + 1, -(p + 1), 7 * p, -7 * p,
		89482311, -89482311, 89482311 + p,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		-0x61c8864680b583eb, 0x61c8864680b583eb,
	}
	gen := rand.New(rand.NewSource(20261019))
	for i := 0; i < 1200; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestLazySourceMatchesMathRand draws 1,300 values -- past two full lag
// cycles -- from one re-seeded lazySource per seed and compares each
// with rand.NewSource's, through both Uint64 and Int63.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 1300
	var src lazySource
	for _, seed := range lazySourceSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < draws; k++ {
			var got, want uint64
			if k%3 == 2 {
				got, want = uint64(src.Int63()), uint64(ref.Int63())
			} else {
				got, want = src.Uint64(), ref.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d, draw %d: lazySource %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}
}

// TestLazySourceReseedThroughRand re-seeds one rand.Rand over one
// lazySource between seeds after a varying number of draws, so stale
// entries of the previous seed are left at every table position, and
// compares the ExpFloat64 and Float64 draws the spot sampler makes with
// a fresh math/rand generator's.
func TestLazySourceReseedThroughRand(t *testing.T) {
	var src lazySource
	rng := rand.New(&src)
	for i, seed := range lazySourceSeeds() {
		ref := rand.New(rand.NewSource(seed))
		rng.Seed(seed)
		for k := 0; k < 1+i%700; k++ {
			if got, want := rng.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d, draw %d: ExpFloat64 %v, math/rand %v", seed, k, got, want)
			}
			if got, want := rng.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, k, got, want)
			}
		}
	}
}
