package core

// Measurement noise. runSuiteUncached's noise draws are a pure function
// of the stream's seed (Seed ^ configSeed(cfg)): the same configuration
// always consumes the same NormFloat64 sequence in the same order,
// whatever the Study's Noise or Runs settings (Noise scales a draw,
// Runs takes a prefix).
//
// The draws come from noiseSource, a rand.Source64 whose output is
// bit-identical to math/rand.NewSource's for every seed. math/rand's
// own seeding walks a serial 1,841-step Schrage chain: ~12 µs and a
// fresh 4.9 KB state per seed, against ~2 µs for the 320 draws of a
// full suite. noiseSource derives the same state from independent
// multiplies in ~3 µs (BenchmarkNoiseSeed, 2-CPU x86-64 host), and the
// fallback path reseeds a pooled generator, so an uncached evaluation
// allocates no generator state. A campaign-heavy process still replays
// the same few dozen seeds on every cold engine, so the draws
// themselves are also cached process-wide by seed, and only the draws:
// 2.5 KB for a full suite's 320, where a cached generator would add
// its 4.9 KB state. A cached replay multiplies the identical draw
// values in the identical order, so results stay bit-identical to a
// freshly seeded generator; the caller falls back to one when the
// cache is full.

import (
	"math/rand"
	"sync"
)

const (
	// maxNoiseSeeds bounds the cache: distinct seeds come from distinct
	// (machine label, software config) pairs, so a serving process sees
	// a bounded working set and an adversarial one cannot grow the
	// cache past ~maxNoiseSeeds * maxNoiseDraws floats.
	maxNoiseSeeds = 1024
	// maxNoiseDraws bounds one stream (a full suite at default Runs is
	// 320 draws; anything past this falls back to a fresh generator).
	maxNoiseDraws = 1 << 14
)

// noiseCache maps a seed to its cached draw prefix. A seed keeps only
// its draws, at exactly the longest length requested: no generator state
// (4.9 KB a seed) and no append slack. A request for a longer prefix
// regenerates the whole prefix from a pooled generator.
type noiseCache struct {
	mu sync.Mutex
	m  map[int64][]float64
}

// noiseStreams is the process-wide noise-draw cache.
var noiseStreams noiseCache

// draws returns the first n NormFloat64 draws of the seeded stream, or
// nil when the request cannot be served from the cache (the caller
// seeds a generator from noiseRandPool). The returned slice is shared
// and read-only; a longer prefix is a new slice, so a prior caller's
// view never changes.
func (c *noiseCache) draws(seed int64, n int) []float64 {
	if n > maxNoiseDraws {
		return nil
	}
	c.mu.Lock()
	d, ok := c.m[seed]
	full := !ok && len(c.m) >= maxNoiseSeeds
	c.mu.Unlock()
	if full {
		return nil
	}
	if len(d) >= n {
		return d[:n:n]
	}

	// Generate outside the lock: a racing request for the same seed
	// generates identical draws, and the longer prefix is kept.
	d = make([]float64, n)
	rng := noiseRandPool.Get().(*rand.Rand)
	rng.Seed(seed)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	noiseRandPool.Put(rng)

	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[int64][]float64)
	}
	if cur, ok := c.m[seed]; !ok && len(c.m) < maxNoiseSeeds || ok && len(cur) < n {
		c.m[seed] = d
	}
	c.mu.Unlock()
	return d
}

// noiseRandPool recycles generators for draws the cache does not
// serve; reseed one with (*rand.Rand).Seed before use.
var noiseRandPool = sync.Pool{
	New: func() any { return rand.New(new(noiseSource)) },
}

// noiseSource reproduces math/rand's additive lagged-Fibonacci
// generator (x[n] = x[n-607] + x[n-273] mod 2^64) and its seeding.
// math/rand seeds state word i from three consecutive values
// x_{21+3i}, x_{22+3i}, x_{23+3i} of the Lehmer sequence
// x_k = seed·48271^k mod (2^31−1), XORed with a fixed "cooked" word.
// It walks that sequence serially; noiseSource reads each x_k as one
// multiply by a precomputed power, so the 1,821 multiplies are
// independent of one another.
type noiseSource struct {
	tap, feed int
	vec       [noiseLen]uint64
}

const (
	noiseLen   = 607 // lag of the generator, and its state words
	noiseTap   = 273 // short lag
	mersenne31 = 1<<31 - 1
	lehmerMul  = 48271
)

var (
	// lehmerPow[k] = 48271^k mod (2^31−1), for every k seeding reads.
	lehmerPow [21 + 3*noiseLen]uint64
	// noiseCooked is math/rand's rngCooked table, recovered at init
	// from the reference generator's output rather than copied.
	noiseCooked [noiseLen]uint64
)

func init() {
	p := uint64(1)
	for k := range lehmerPow {
		lehmerPow[k] = p
		p = p * lehmerMul % mersenne31
	}

	// o[k] is the reference generator's k-th output (1-based). Output k
	// reads feed slot (334−k) mod 607 and tap slot (607−k) mod 607 and
	// overwrites the feed slot, so each initial state word is the
	// difference of an output and the earlier output (or recovered
	// word) it was added to.
	ref := rand.NewSource(1).(rand.Source64)
	var o [noiseLen + 1]uint64
	for k := 1; k <= noiseLen; k++ {
		o[k] = ref.Uint64()
	}
	const feed0 = noiseLen - noiseTap // 334
	var vec [noiseLen]uint64
	for k := noiseTap + 1; k <= feed0; k++ {
		vec[feed0-k] = o[k] - o[k-noiseTap]
	}
	for k := feed0 + 1; k <= noiseLen; k++ {
		vec[noiseLen+feed0-k] = o[k] - o[k-noiseTap]
	}
	for k := 1; k <= noiseTap; k++ {
		vec[feed0-k] = o[k] - vec[noiseLen-k]
	}
	// With noiseCooked still zero, Seed(1) leaves the bare seed words.
	var raw noiseSource
	raw.Seed(1)
	for i := range noiseCooked {
		noiseCooked[i] = vec[i] ^ raw.vec[i]
	}
}

// mulMod31 returns a·b mod (2^31−1) for a, b in [1, 2^31−2]. Since
// 2^31 ≡ 1, folding the product's high bits onto its low bits leaves a
// value below 2·(2^31−1), and one conditional subtraction finishes.
func mulMod31(a, b uint64) uint64 {
	p := a * b
	p = p&mersenne31 + p>>31
	if p >= mersenne31 {
		p -= mersenne31
	}
	return p
}

// Seed reduces seed exactly as math/rand does and derives the state.
func (s *noiseSource) Seed(seed int64) {
	seed %= mersenne31
	if seed < 0 {
		seed += mersenne31
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		pw := lehmerPow[21+3*i : 24+3*i : 24+3*i]
		s.vec[i] = mulMod31(x, pw[0])<<40 ^ mulMod31(x, pw[1])<<20 ^
			mulMod31(x, pw[2]) ^ noiseCooked[i]
	}
	s.tap = 0
	s.feed = noiseLen - noiseTap
}

// Uint64 advances the generator one step.
func (s *noiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += noiseLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += noiseLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with the top bit cleared.
func (s *noiseSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
