package core

// Suite-run memoization. The paper's experiments re-evaluate the same
// (machine, threads, placement, precision, compiler) configuration over
// and over — Figure 1's SG2042 columns are Figure 4/5's baselines, the
// scaling tables share their one-thread baseline with every row, and a
// long-lived engine serving experiment requests replays all of them.
// Because RunSuite seeds its measurement noise from the configuration
// (Seed ^ configSeed(cfg)), a cached result is bit-identical to a fresh
// evaluation, so memoization is purely an execution strategy.

import (
	"math"

	"repro/internal/autovec"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
)

// suiteKey canonically identifies one RunSuite evaluation: every Config
// field that feeds the performance model or the noise seeding, plus the
// Study knobs (Model/Runs/Noise/Seed), so re-tuning a Study between
// calls — changing a knob or swapping in a different Model — misses the
// old entries instead of serving stale measurements. The one mutation
// the key cannot see is editing a Model's Calibration in place after
// its first use (Calibration holds a map and cannot be part of the
// key); assign a fresh Model instead, or set NoCache.
type suiteKey struct {
	model      *perfmodel.Model
	machine    string
	machineFP  uint64
	threads    int
	placement  placement.Policy
	prec       prec.Precision
	compiler   autovec.Compiler
	mode       autovec.Mode
	scalarOnly bool
	problemN   int
	runs       int
	noise      float64
	seed       int64
}

// machineFingerprint folds every Machine parameter into one hash so the
// cache distinguishes machines by their full parameter set, not just
// their label: a copied preset with a tweaked core count or cache size
// must miss, never collide with the stock entry. Pointer identity
// would be wrong the other way round — the presets return a fresh
// *Machine per call, so identical machines would never hit. The hash
// itself is machine.Fingerprint's hand-rolled field walk: this sits on
// the hot path of every cache lookup, and the reflection-based
// formatting it replaced was ~90 allocations per key.
func machineFingerprint(m *machine.Machine) uint64 {
	if m == nil {
		return 0
	}
	return m.Fingerprint()
}

// suiteKeyFor canonicalizes cfg (Runs clamps at 1 like the evaluation
// does).
func (st *Study) suiteKeyFor(cfg perfmodel.Config) suiteKey {
	return st.suiteKeyFP(cfg, machineFingerprint(cfg.Machine))
}

// suiteKeyFP is suiteKeyFor with the machine fingerprint supplied by a
// caller that has already computed it — the campaign planner hashes
// each derived machine once and keys every point's lookups off that.
func (st *Study) suiteKeyFP(cfg perfmodel.Config, fp uint64) suiteKey {
	label := ""
	if cfg.Machine != nil {
		label = cfg.Machine.Label
	}
	runs := st.Runs
	if runs < 1 {
		runs = 1
	}
	return suiteKey{
		model:      st.Model,
		machine:    label,
		machineFP:  fp,
		threads:    cfg.Threads,
		placement:  cfg.Placement,
		prec:       cfg.Prec,
		compiler:   cfg.Compiler,
		mode:       cfg.Mode,
		scalarOnly: cfg.ScalarOnly,
		problemN:   cfg.ProblemN,
		runs:       runs,
		noise:      st.Noise,
		seed:       st.Seed,
	}
}

// maxSuiteEntries bounds the suite cache. It sits above the ~34k
// entries a long campaign benchmark round holds, so no benchmark
// workload evicts; what it defends against is the client-controlled
// key space — every distinct machine an inline sweep spec or a float
// campaign axis derives adds entries of ~2.3 KB each.
const maxSuiteEntries = 1 << 16

// suiteKeyHash mixes the key's discriminating fields with FNV-1a. The
// model pointer is deliberately left out (one Study, one Model — no
// entropy), as is the label (the fingerprint already covers the
// machine).
func suiteKeyHash(k suiteKey) uint64 {
	h := memo.Mix(memo.Offset, k.machineFP)
	h = memo.Mix(h, uint64(k.threads))
	h = memo.Mix(h, uint64(k.placement))
	h = memo.Mix(h, uint64(k.prec))
	h = memo.Mix(h, uint64(k.compiler))
	h = memo.Mix(h, uint64(k.mode))
	if k.scalarOnly {
		h = memo.Mix(h, 1)
	}
	h = memo.Mix(h, uint64(k.problemN))
	h = memo.Mix(h, uint64(k.runs))
	h = memo.Mix(h, math.Float64bits(k.noise))
	return memo.Mix(h, uint64(k.seed))
}

// CacheStats reports memoized RunSuite lookups so far: hits served from
// the cache and misses that evaluated the suite.
func (st *Study) CacheStats() (hits, misses uint64) {
	s := st.SuiteCacheStats()
	return s.Hits, s.Misses
}

// SuiteCacheStats reports the suite cache's full counters, evictions
// and live entries included.
func (st *Study) SuiteCacheStats() memo.Stats {
	if st.cache == nil {
		return memo.Stats{}
	}
	return st.cache.Stats()
}
