package core

import (
	"math"
	"math/rand"
	"testing"
)

// Lengths of the equivalence check: the raw stream runs past the
// 607-word state wrap, the normal stream past a full suite at Runs=5.
const (
	noiseCheckUint64s = 1300
	noiseCheckNorms   = 3000
)

// noiseEdgeSeeds cover math/rand's seed reduction: zero and the values
// that reduce to it, the remapped 89482311, negatives, the modulus and
// its neighbours, and the int64 extremes.
var noiseEdgeSeeds = []int64{
	0, 1, -1, 2, mersenne31, -mersenne31, mersenne31 - 1, mersenne31 + 1,
	2 * mersenne31, -2 * mersenne31, 1 << 31, -(1 << 31), 89482311, -89482311,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// checkNoiseSource compares noiseSource with math/rand for one seed:
// the raw Uint64 stream, and NormFloat64 through a freshly seeded
// generator and through reused, a pooled generator reseeded here the
// way runSuiteUncached reseeds one.
func checkNoiseSource(t *testing.T, reused *rand.Rand, seed int64) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	var got noiseSource
	got.Seed(seed)
	for i := 0; i < noiseCheckUint64s; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}

	wantR := rand.New(rand.NewSource(seed))
	fresh := new(noiseSource)
	fresh.Seed(seed)
	freshR := rand.New(fresh)
	reused.Seed(seed)
	for i := 0; i < noiseCheckNorms; i++ {
		w := math.Float64bits(wantR.NormFloat64())
		if g := math.Float64bits(freshR.NormFloat64()); g != w {
			t.Fatalf("seed %d: fresh NormFloat64 #%d = %#x, math/rand gives %#x", seed, i, g, w)
		}
		if g := math.Float64bits(reused.NormFloat64()); g != w {
			t.Fatalf("seed %d: reseeded NormFloat64 #%d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
}

// TestNoiseSourceMatchesMathRand pins noiseSource bit for bit to
// math/rand.NewSource over the edge seeds, a run of consecutive seeds
// and pseudo-random seeds spread over the whole int64 range.
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), noiseEdgeSeeds...)
	for s := int64(-500); s < 500; s++ {
		seeds = append(seeds, s)
	}
	pick := rand.New(rand.NewSource(20230901))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	if len(seeds) < 2000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	reused := noiseRandPool.Get().(*rand.Rand)
	defer noiseRandPool.Put(reused)
	for _, seed := range seeds {
		checkNoiseSource(t, reused, seed)
	}
}

// FuzzNoiseSource runs the same equivalence check on arbitrary seeds.
func FuzzNoiseSource(f *testing.F) {
	for _, seed := range noiseEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		reused := noiseRandPool.Get().(*rand.Rand)
		defer noiseRandPool.Put(reused)
		reused.Seed(^seed)
		reused.NormFloat64()
		checkNoiseSource(t, reused, seed)
	})
}

// BenchmarkNoiseSeed measures reseeding a pooled generator, the cost
// every uncached suite evaluation pays before its draws.
func BenchmarkNoiseSeed(b *testing.B) {
	rng := rand.New(new(noiseSource))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
	}
}
