package core

// The campaign planner. A CampaignSpec used to be re-expanded — every
// machine re-derived, re-validated and re-fingerprinted — by each of
// Validate, Points, Title, Campaign and Fingerprints, and every grid
// point paid its own suite-cache key construction, measurement copies
// and map-backed ratio aggregation. planFor compiles a spec exactly
// once into a campaignPlan:
//
//   - the derivation cache: each unique (parent machine, axis, value)
//     derivation is built and validated once, and duplicate axis values
//     resolve to the same *Machine, so downstream dedup is pointer
//     equality;
//   - the odometer: the grid is never materialized — a point's inputs
//     are decoded arithmetically from its index (bases outermost, axis
//     values in odometer order with the last axis fastest, then
//     threads, placements, precisions), so plan memory is flat in the
//     grid size and the point cap can sit far above the old
//     materialized limit;
//   - cross-point dedup: points whose resolved configuration collides —
//     same derived machine, same clamped thread counts (against both
//     the variant and its base), same placement and precision —
//     evaluate once and fan out in grid order;
//   - per-configuration compilation: every unique suite configuration
//     carries its precomputed machine fingerprint, so cache lookups
//     skip the per-point hash walk.
//
// Plans are memoized process-wide under a canonical content key (base
// fingerprints, exact axis value bit patterns, software lists), the
// same canonicalization the HTTP render cache uses, so repeated
// campaigns over one spec — including a serving daemon's — plan once.
// Everything here is an execution strategy: evaluation order, noise
// seeding and aggregation arithmetic are unchanged, and campaign bytes
// are bit-identical to the pre-planner path.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memo"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// planCombo is one (base, axis-value combination) of the grid: the
// derived machine shared by that combination's software points.
type planCombo struct {
	m      *machine.Machine
	fp     uint64    // m.Fingerprint(), hashed once
	values []float64 // axis values applied, aligned with spec.Axes
	canon  int32     // first combo with the same machine (dup axis values)
}

// planConfig is one unique suite configuration a campaign evaluates —
// a grid point's own config or a base-machine reference config — with
// its fingerprint precomputed for suite-cache keying.
type planConfig struct {
	m       *machine.Machine
	fp      uint64
	threads int // resolved (clamped to m.Cores; 0 means full occupancy)
	pol     placement.Policy
	p       prec.Precision
}

// planUniq is one deduplicated evaluation unit: every grid point that
// resolves to the same (machine, clamped threads, base threads,
// placement, precision) shares it and fans its template out by index.
type planUniq struct {
	combo   int32 // canonical combo (metadata: labels, values, cores)
	cfg     int32 // index into configs: the point's configuration
	baseCfg int32 // index into configs: the base reference configuration
}

// campaignPlan is a compiled campaign: validated spec, derived
// machines, and the odometer geometry. The dedup tables are built
// lazily (dedup) because the cheap surfaces — Validate, Points, Title,
// Fingerprints — never need them.
type campaignPlan struct {
	spec       CampaignSpec // normalized
	combos     []planCombo
	axisCombos int
	baseFPs    []uint64 // per-base fingerprints, hashed once
	n          int

	uniqOnce  sync.Once
	uniqs     []planUniq
	pointUniq []int32 // grid index -> uniq index
	configs   []planConfig
}

// softPerCombo is the number of software points per combo.
func (p *campaignPlan) softPerCombo() int {
	s := p.spec
	return len(s.Threads) * len(s.Placements) * len(s.Precs)
}

// caseAt decodes grid index i into its combo and software indices —
// the odometer replacing the materialized case slice.
func (p *campaignPlan) caseAt(i int) (combo, ti, pi, qi int) {
	s := p.spec
	nQ := len(s.Precs)
	nP := len(s.Placements)
	qi = i % nQ
	i /= nQ
	pi = i % nP
	i /= nP
	ti = i % len(s.Threads)
	combo = i / len(s.Threads)
	return
}

// resolveThreads clamps a requested thread count the way campaignConfig
// does: out-of-range (or 0 = full occupancy) resolves to all cores.
func resolveThreads(threads, cores int) int {
	if threads <= 0 || threads > cores {
		return cores
	}
	return threads
}

// planKeyFor canonicalizes a spec into the plan-cache key: every base's
// label and full fingerprint, the exact bit patterns of the axis
// values, and the software-config lists. Built with byte appends — the
// key is computed on every campaign surface call, hit or miss.
func planKeyFor(s CampaignSpec) string {
	s = s.normalized()
	b := make([]byte, 0, 192)
	for _, base := range s.Bases {
		if base == nil {
			b = append(b, "nil;"...)
			continue
		}
		b = append(b, base.Label...)
		b = append(b, '|')
		b = strconv.AppendUint(b, base.Fingerprint(), 16)
		b = append(b, ';')
	}
	for _, ax := range s.Axes {
		b = append(b, 'a')
		b = append(b, ax.Axis...)
		b = append(b, ':')
		for _, v := range ax.Values {
			b = strconv.AppendUint(b, math.Float64bits(v), 16)
			b = append(b, ',')
		}
	}
	b = append(b, 't')
	for _, t := range s.Threads {
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	b = append(b, 'p')
	for _, pol := range s.Placements {
		b = strconv.AppendInt(b, int64(pol), 10)
		b = append(b, ',')
	}
	b = append(b, 'q')
	for _, p := range s.Precs {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// maxPlans is how many distinct specs the process keeps compiled.
// Past it an unseen spec compiles per call and is not kept, so a
// long-lived daemon's plan memory stays bounded however many distinct
// campaigns it serves.
const maxPlans = 128

// plans memoizes compiled plans process-wide. Its capacity gives each
// of the memo's shards room for maxPlans entries, so shard eviction
// can never fire before planFor's own admission check does.
var plans = memo.New[string, *campaignPlan](memo.Shards*maxPlans, func(k string) uint64 {
	return memo.MixString(memo.Offset, k)
})

// planFor returns the compiled plan for spec, building and memoizing it
// on first use. Errors are not memoized: an invalid spec re-validates
// on every call.
func planFor(s CampaignSpec) (*campaignPlan, error) {
	key := planKeyFor(s)
	if p, ok := plans.Lookup(key); ok {
		return p, nil
	}
	if plans.Stats().Entries >= maxPlans {
		return buildPlan(s)
	}
	return plans.Get(key, func() (*campaignPlan, error) { return buildPlan(s) })
}

// buildPlan validates the spec and derives every combo's machine — the
// one-time compilation. The validation sequence (and so the first error
// reported) is identical to the old expand path.
func buildPlan(s CampaignSpec) (*campaignPlan, error) {
	s = s.normalized()
	if len(s.Bases) == 0 {
		return nil, fmt.Errorf("core: campaign has no base machines")
	}
	seen := make(map[string]bool, len(s.Bases))
	for _, b := range s.Bases {
		if b == nil {
			return nil, fmt.Errorf("core: campaign has a nil base machine")
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
		key := strings.ToLower(b.Label)
		if seen[key] {
			return nil, fmt.Errorf("core: campaign base %q listed twice", b.Label)
		}
		seen[key] = true
	}
	combos := 1
	seenAxis := make(map[SweepAxis]bool, len(s.Axes))
	for _, ax := range s.Axes {
		switch ax.Axis {
		case SweepCores, SweepClock, SweepVector, SweepNUMA, SweepSockets, SweepNodes:
		default:
			return nil, fmt.Errorf("core: unknown campaign axis %q (want one of %s)",
				ax.Axis, joinAxes())
		}
		if seenAxis[ax.Axis] {
			return nil, fmt.Errorf("core: campaign axis %s listed twice", ax.Axis)
		}
		seenAxis[ax.Axis] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("core: campaign axis %s has no values", ax.Axis)
		}
		combos *= len(ax.Values)
	}
	for _, t := range s.Threads {
		if t < 0 {
			return nil, fmt.Errorf("core: campaign threads %d < 0", t)
		}
	}
	for _, pol := range s.Placements {
		switch pol {
		case placement.Block, placement.CyclicNUMA, placement.ClusterCyclic:
		default:
			return nil, fmt.Errorf("core: unknown campaign placement %v", pol)
		}
	}
	for _, p := range s.Precs {
		switch p {
		case prec.F32, prec.F64:
		default:
			return nil, fmt.Errorf("core: unknown campaign precision %v", p)
		}
	}
	total := len(s.Bases) * combos * len(s.Threads) * len(s.Placements) * len(s.Precs)
	if total > MaxCampaignPoints {
		return nil, fmt.Errorf("core: campaign expands to %d points, max %d", total, MaxCampaignPoints)
	}

	plan := &campaignPlan{
		spec:       s,
		combos:     make([]planCombo, 0, len(s.Bases)*combos),
		axisCombos: combos,
		n:          total,
	}
	// The derivation cache: one build+validate per unique (parent, axis,
	// value); duplicate values within an axis share the derived machine
	// by pointer, which is what makes downstream dedup exact.
	type dkey struct {
		parent *machine.Machine
		axis   SweepAxis
		bits   uint64
	}
	dcache := make(map[dkey]*machine.Machine)
	values := make([]float64, len(s.Axes))
	for _, base := range s.Bases {
		var walk func(i int, m *machine.Machine) error
		walk = func(i int, m *machine.Machine) error {
			if i == len(s.Axes) {
				applied := append([]float64(nil), values...)
				plan.combos = append(plan.combos, planCombo{m: m, values: applied})
				return nil
			}
			for _, v := range s.Axes[i].Values {
				k := dkey{m, s.Axes[i].Axis, math.Float64bits(v)}
				variant, ok := dcache[k]
				if !ok {
					var err error
					variant, err = deriveAxis(m, s.Axes[i].Axis, v)
					if err != nil {
						return err
					}
					dcache[k] = variant
				}
				values[i] = v
				if err := walk(i+1, variant); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(0, base); err != nil {
			return nil, err
		}
	}
	// Fingerprint each distinct machine once; duplicate-value combos
	// alias their canonical combo.
	firstOf := make(map[*machine.Machine]int32, len(plan.combos))
	for i := range plan.combos {
		cb := &plan.combos[i]
		if j, ok := firstOf[cb.m]; ok {
			cb.canon = j
			cb.fp = plan.combos[j].fp
			continue
		}
		firstOf[cb.m] = int32(i)
		cb.canon = int32(i)
		cb.fp = cb.m.Fingerprint()
	}
	plan.baseFPs = make([]uint64, len(s.Bases))
	for bi, base := range s.Bases {
		if j, ok := firstOf[base]; ok { // no axes: the base is its own combo
			plan.baseFPs[bi] = plan.combos[j].fp
		} else {
			plan.baseFPs[bi] = base.Fingerprint()
		}
	}
	return plan, nil
}

// dedup lazily builds the evaluation tables: the unique configurations,
// the deduplicated evaluation units, and the grid-index mapping. Only
// the evaluating surfaces (Campaign, CampaignPoints) pay for it.
func (p *campaignPlan) dedup() {
	p.uniqOnce.Do(func() {
		s := p.spec
		type ukey struct {
			m      *machine.Machine
			pt, bt int
			pol    placement.Policy
			pr     prec.Precision
		}
		type ckey struct {
			m   *machine.Machine
			t   int
			pol placement.Policy
			pr  prec.Precision
		}
		uniqBy := make(map[ukey]int32)
		cfgBy := make(map[ckey]int32)
		p.pointUniq = make([]int32, 0, p.n)
		getCfg := func(m *machine.Machine, fp uint64, t int, pol placement.Policy, pr prec.Precision) int32 {
			k := ckey{m, t, pol, pr}
			if i, ok := cfgBy[k]; ok {
				return i
			}
			i := int32(len(p.configs))
			p.configs = append(p.configs, planConfig{m: m, fp: fp, threads: t, pol: pol, p: pr})
			cfgBy[k] = i
			return i
		}
		for ci := range p.combos {
			cb := &p.combos[ci]
			canon := &p.combos[cb.canon]
			base := s.Bases[ci/p.axisCombos]
			baseFP := p.baseFPs[ci/p.axisCombos]
			for _, t := range s.Threads {
				pt := resolveThreads(t, cb.m.Cores)
				bt := resolveThreads(t, base.Cores)
				for _, pol := range s.Placements {
					for _, pr := range s.Precs {
						k := ukey{canon.m, pt, bt, pol, pr}
						u, ok := uniqBy[k]
						if !ok {
							u = int32(len(p.uniqs))
							p.uniqs = append(p.uniqs, planUniq{
								combo:   cb.canon,
								cfg:     getCfg(canon.m, canon.fp, pt, pol, pr),
								baseCfg: getCfg(base, baseFP, bt, pol, pr),
							})
							uniqBy[k] = u
						}
						p.pointUniq = append(p.pointUniq, u)
					}
				}
			}
		}
	})
}

// suiteClassPos maps each class (by its index in kernels.Classes) to
// the suite positions of its kernels, in suite order — the positional
// form of ClassSummaries' name-keyed aggregation.
var suiteClassPos struct {
	once sync.Once
	pos  [][]int
}

func classPositions() [][]int {
	suiteClassPos.once.Do(func() {
		specs := suite.All()
		idx := make(map[kernels.Class]int, len(kernels.Classes))
		for i, c := range kernels.Classes {
			idx[c] = i
		}
		pos := make([][]int, len(kernels.Classes))
		for i := range specs {
			j := idx[specs[i].Class]
			pos[j] = append(pos[j], i)
		}
		suiteClassPos.pos = pos
	})
	return suiteClassPos.pos
}
