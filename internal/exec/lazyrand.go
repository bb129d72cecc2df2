package exec

import "math/rand"

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) for every seed, but seeds in O(1).
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word table.  Its Seed fills the whole table up front: entry i is
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ cooked[i]
//
// where x(n) = 48271^n · x0 mod (2^31−1) is a Lehmer LCG started at the
// reduced seed x0, so a seed costs 1,841 serial LCG steps.  A spot
// instance re-seeds once and then draws only a few dozen values, so
// lazySource records x0 and computes each table entry on its first
// read instead, from the precomputed powers 48271^n: three
// multiply-mods an entry, and only for the entries the draws reach.
// The lag indices, the tap/feed order and the seed reduction are
// math/rand's, so every draw is bit-for-bit the standard library's.
//
// The zero value must be seeded before use.
type lazySource struct {
	tap, feed int
	x0        uint64                    // reduced seed: the LCG's start
	ready     [(lfLen + 63) / 64]uint64 // bit i: vec[i] has been read
	vec       [lfLen]int64
}

// The constants of math/rand's generator.
const (
	lfLen  = 607       // lag table length
	lfTap  = 273       // tap distance
	lcgMod = 1<<31 - 1 // seeding LCG modulus
	lcgMul = 48271     // seeding LCG multiplier
)

var (
	// lcgPow[i] holds 48271^n mod (2^31−1) for the three LCG steps
	// n = 21+3i, 22+3i, 23+3i that seed table entry i.
	lcgPow [lfLen][3]uint64
	// lfCooked is math/rand's rngCooked table, recovered from the
	// standard library's own output so that it can never drift from it.
	lfCooked [lfLen]int64
)

func init() {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = p * lcgMul % lcgMod
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			p = p * lcgMul % lcgMod
			lcgPow[i][j] = p
		}
	}
	lfCooked = recoverCooked()
}

// recoverCooked inverts the first lfLen draws of rand.NewSource(1).
// Right after Seed, draw k adds the tap entry 606−k to the feed entry
// (333−k) mod 607 and stores the sum there; each feed entry is read
// unchanged exactly once in those draws.  From draw 273 on, the tap
// entry is the sum draw k−273 stored, which yields entries 0–60 and
// 334–606; earlier draws tap entries 334–606, which then yield 61–333.
// XORing out seed 1's LCG part leaves the cooked constants.
func recoverCooked() [lfLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [lfLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	const feed0 = lfLen - lfTap - 1 // the feed entry of draw 0
	for k := lfTap; k < lfLen; k++ {
		vec[(feed0-k+lfLen)%lfLen] = out[k] - out[k-lfTap]
	}
	for k := 0; k < lfTap; k++ {
		vec[feed0-k] = out[k] - vec[lfLen-1-k]
	}
	var cooked [lfLen]int64
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgPart(1, i)
	}
	return cooked
}

// lcgPart is seed x0's LCG contribution to lag table entry i.
func lcgPart(x0 uint64, i int) int64 {
	pw := &lcgPow[i]
	return int64(pw[0]*x0%lcgMod<<40 ^ pw[1]*x0%lcgMod<<20 ^ pw[2]*x0%lcgMod)
}

// Seed reduces seed as math/rand does and forgets the table.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, lfLen-lfTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.ready = [len(s.ready)]uint64{}
}

// entry returns table entry i, computing its seeded value on first read.
func (s *lazySource) entry(i int) int64 {
	if w, bit := i>>6, uint64(1)<<(i&63); s.ready[w]&bit == 0 {
		s.ready[w] |= bit
		s.vec[i] = lcgPart(s.x0, i) ^ lfCooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's rngSource.Uint64 over the lazily seeded table.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.entry(s.feed) + s.entry(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
