package lazyrand

import (
	"math/rand"
	"slices"
	"testing"
)

// draws covers three full turns of the 607-word table, so words the
// generator has already rewritten are read again.
const draws = 3*rngLen + 5

// oracleSeeds are the edge seeds of math/rand's seed normalization
// (zero, the modulus and its multiples, negatives, the zero
// replacement itself, values past 32 bits) plus 200 walk seeds mixed
// the way the samplers derive them.
func oracleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, -(lcgMod - 1),
		seedZero, 1 << 40, -1 << 62, 1<<63 - 1, -1 << 63,
	}
	for i := 0; i < 200; i++ {
		seeds = append(seeds, mixWalkSeed(int64(i%7)-3, i))
	}
	return seeds
}

// mixWalkSeed mirrors the samplers' per-walk seed mixing (a splitmix64
// round over the engine seed and the walk index).
func mixWalkSeed(seed int64, walk int) int64 {
	z := uint64(seed) + uint64(walk)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// TestStreamMatchesMathRand is the exactness oracle: for every seed,
// the Uint64 and Int63 streams equal math/rand.NewSource's.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for k := 0; k < draws; k++ {
			if k%2 == 0 {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, k, g, w)
				}
			} else if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestReseedAfterPartialDraw reseeds one Source after draws that
// leave part of the table built and part rewritten; every reseed must
// restart the stream exactly.
func TestReseedAfterPartialDraw(t *testing.T) {
	var src Source
	for i, seed := range oracleSeeds() {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		n := (i * 131) % draws // a different partial draw for each seed
		for k := 0; k < n+rngLen; k++ {
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("seed %d (reseeded after %d draws): draw %d = %#x, want %#x", seed, n, k, g, w)
			}
		}
	}
}

// TestZeroSourceIsSeedZero pins the documented zero value.
func TestZeroSourceIsSeedZero(t *testing.T) {
	var src Source
	want := rand.NewSource(0)
	for k := 0; k < draws; k++ {
		if w, g := want.Int63(), src.Int63(); w != g {
			t.Fatalf("zero Source draw %d = %#x, want %#x", k, g, w)
		}
	}
}

// TestRandWrapperMatches checks the derived rand.Rand methods the
// samplers and the synthetic corpus generator use, on one reseeded
// Source as the samplers hold it.
func TestRandWrapperMatches(t *testing.T) {
	var src Source
	rng := rand.New(&src)
	for _, seed := range oracleSeeds() {
		rng.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 50; k++ {
			n := 1 + k%9
			if w, g := want.Intn(n), rng.Intn(n); w != g {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, want %d", seed, n, k, g, w)
			}
			if w, g := want.Float64(), rng.Float64(); w != g {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, k, g, w)
			}
			if w, g := want.Perm(n), rng.Perm(n); !slices.Equal(w, g) {
				t.Fatalf("seed %d: Perm(%d) #%d = %v, want %v", seed, n, k, g, w)
			}
			if w, g := want.Uint64(), rng.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestSeedIsConstantTime checks that seeding allocates nothing and
// builds no words: a reseeded Source has no word marked built.
func TestSeedIsConstantTime(t *testing.T) {
	src := New(42)
	for k := 0; k < draws; k++ {
		src.Uint64()
	}
	if a := testing.AllocsPerRun(100, func() { src.Seed(7) }); a != 0 {
		t.Errorf("Seed allocates %.1f times, want 0", a)
	}
	for i, w := range src.built {
		if w != 0 {
			t.Fatalf("after Seed, built[%d] = %#x, want no word built", i, w)
		}
	}
}

// BenchmarkSeed compares one seed plus a short walk's worth of draws
// against math/rand's eager source.
func BenchmarkSeed(b *testing.B) {
	const walkDraws = 16
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		var src Source
		rng := rand.New(&src)
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i))
			for k := 0; k < walkDraws; k++ {
				rng.Intn(3)
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < walkDraws; k++ {
				rng.Intn(3)
			}
		}
	})
}
