package core

import (
	"math"
	"math/rand"
	"runtime"
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

// TestNoiseCacheExtendsPrefix: after a shorter prefix was cached, a
// longer request returns draws bit-identical to a freshly seeded
// math/rand generator, leaves the earlier view intact, and a replay of
// a cached length is served without regenerating.
func TestNoiseCacheExtendsPrefix(t *testing.T) {
	var c noiseCache
	for _, seed := range []int64{977, -3, math.MaxInt64} {
		short := append([]float64(nil), c.draws(seed, 40)...)
		view := c.draws(seed, 40)
		long := c.draws(seed, 700)
		ref := rand.New(rand.NewSource(seed))
		for i, got := range long {
			if w := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("seed %d: extended draw #%d = %v, math/rand gives %v", seed, i, got, w)
			}
		}
		for i := range short {
			if math.Float64bits(view[i]) != math.Float64bits(short[i]) {
				t.Fatalf("seed %d: extending the stream changed an earlier view at #%d", seed, i)
			}
		}
		if again := c.draws(seed, 320); len(again) != 320 || &again[0] != &long[0] {
			t.Errorf("seed %d: replaying a cached prefix regenerated it", seed)
		}
	}
}

// TestNoiseCacheHoldsOnlyDraws: a cached seed costs about its draws —
// 2.5 KB for a full suite's 320 — not a generator state besides.
func TestNoiseCacheHoldsOnlyDraws(t *testing.T) {
	const (
		seeds   = 512
		n       = 320
		maxSeed = 3 << 10 // bytes of live heap per cached seed
	)
	var c noiseCache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for s := int64(0); s < seeds; s++ {
		if c.draws(1<<40+s, n) == nil {
			t.Fatalf("seed %d not admitted", s)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&c)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / seeds; per > maxSeed {
		t.Errorf("caching %d seeds at n = %d grew the live heap by %d B a seed, want <= %d", seeds, n, per, maxSeed)
	}
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
