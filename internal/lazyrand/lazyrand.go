// Package lazyrand provides a math/rand source whose output is
// byte-identical to math/rand.NewSource(seed) but whose Seed is O(1).
//
// math/rand's generator is an additive lagged-Fibonacci generator over
// 607 words. Its Seed fills all 607 words eagerly from a Lehmer LCG
// (x ← 48271·x mod 2³¹−1), which costs ~16 µs per seed — far more than
// a short random walk spends drawing from it. Seeding here only records
// the normalized seed; each word is built the first time the generator
// reads it, from a precomputed table of powers of the LCG multiplier.
// Word i is a function of the seed and i alone, so building it late
// gives exactly the value the eager Seed would have stored.
package lazyrand

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// The seeding LCG: x ← lcgMul·x mod lcgMod, math/rand's seedrand.
	lcgMod = 1<<31 - 1
	lcgMul = 48271
	// seedZero replaces a seed ≡ 0 (mod lcgMod), which would stall the
	// LCG at zero.
	seedZero = 89482311
)

// lcgPow[i] is lcgMul^(21+3i) mod lcgMod: math/rand's Seed steps the
// LCG 20 times before word 0 and three times per word, so word i's
// first LCG output is the seed times lcgPow[i].
var lcgPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lcgMul % lcgMod
	}
	for i := range p {
		p[i] = x
		for k := 0; k < 3; k++ {
			x = x * lcgMul % lcgMod
		}
	}
	return p
}()

// Source is a rand.Source64 whose stream equals
// math/rand.NewSource(seed)'s for every seed. The zero Source is seeded
// as by Seed(0). A Source is not safe for concurrent use.
type Source struct {
	x0  uint64 // normalized seed in [1, lcgMod); 0 means Seed(0)
	tap int    // the feed index is always tap+rngLen-rngTap mod rngLen
	vec [rngLen]int64
	// built marks the words of vec that exist for the current seed.
	built [(rngLen + 63) / 64]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state math/rand.NewSource(seed)
// starts in. It takes constant time.
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.tap = 0
	s.built = [len(s.built)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	feed := s.tap + rngLen - rngTap
	if feed >= rngLen {
		feed -= rngLen
	}
	x := s.word(feed) + s.word(s.tap)
	s.vec[feed] = x
	return uint64(x)
}

// word returns vec[i], building it first if the current seed has not
// read it yet.
func (s *Source) word(i int) int64 {
	if s.built[i>>6]&(1<<(i&63)) == 0 {
		s.build(i)
	}
	return s.vec[i]
}

// build computes word i as math/rand's Seed does: three consecutive
// LCG outputs, shifted and XORed together with rngCooked[i].
func (s *Source) build(i int) {
	x0 := s.x0
	if x0 == 0 {
		x0 = seedZero
	}
	xa := x0 * lcgPow[i] % lcgMod
	xb := xa * lcgMul % lcgMod
	xc := xb * lcgMul % lcgMod
	s.vec[i] = int64(xa)<<40 ^ int64(xb)<<20 ^ int64(xc) ^ rngCooked[i]
	s.built[i>>6] |= 1 << (i & 63)
}
