package core

// Multi-axis what-if campaigns. A sweep (sweep.go) varies one hardware
// axis of one machine; the follow-on studies the ROADMAP points at
// (the SG2044 evaluation, arXiv:2508.13840; the multi-socket
// high-core-count study, arXiv:2502.10320) ask cross-product questions:
// cores x clock x vector width x NUMA layout, across several machines,
// under several software configurations at once. A campaign grids over
// all of it — every point is one (derived machine, threads, placement,
// precision) configuration evaluated through the same config-keyed
// memoized suite cache the experiments and sweeps use — and summarises
// the grid as ranked tables: points ordered by speedup against their
// base machine, the best configuration per kernel class, and the Pareto
// front over cores x full-suite time.
//
// Determinism contract: grid expansion is a pure function of the spec
// (bases in order, axis values in odometer order with the last axis
// fastest, then threads, placements, precisions), points fan out over
// internal/par writing into their own slots, and a grid point whose
// derivation chain matches a single-axis sweep point lands on the same
// cache entry. Serial, parallel and cached campaigns are bit-identical.
//
// Execution goes through the compiled plan (plan.go): the spec is
// validated and its machines derived once, the grid is decoded from
// point indices instead of materialized, and points that resolve to
// the same evaluation — same derived machine, same clamped threads
// against both variant and base, same placement and precision —
// evaluate once and fan out in grid order. Deduplication is an
// execution strategy only: every emitted point carries exactly the
// bytes the naive per-point path produces.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/autovec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
)

// AxisValues is one swept hardware axis of a campaign: the axis and the
// values it takes. A campaign grids over the cross-product of all its
// axes.
type AxisValues struct {
	Axis   SweepAxis
	Values []float64
}

// MaxCampaignPoints bounds the expanded grid so a network client cannot
// request an unbounded fan-out. It is deliberately larger than
// MaxSweepPoints — campaigns are the scale surface — and since the
// planner stopped materializing the grid (points decode arithmetically
// from their index and deduplicate before evaluation) the bound guards
// evaluation work, not expansion memory, so it sits far above the old
// materialized limit of 512.
const MaxCampaignPoints = 8192

// CampaignSpec selects a multi-axis what-if campaign: several base
// machines, several swept hardware axes (cross-product), and several
// software configurations every hardware point runs under.
type CampaignSpec struct {
	// Bases are the machines to derive variants from; labels must be
	// unique (case-insensitively) so reports stay unambiguous.
	Bases []*machine.Machine
	// Axes are the swept hardware axes, applied to each base in order.
	// Each axis may appear once; an empty list grids over the bases
	// themselves.
	Axes []AxisValues
	// Threads lists the thread counts to run each hardware point with;
	// each is clamped to the variant's core count and 0 means full
	// occupancy. Empty means [0].
	Threads []int
	// Placements lists the thread placement policies; empty means
	// [Block].
	Placements []placement.Policy
	// Precs lists the floating-point precisions; empty means [FP32]
	// (the zero value, matching SweepSpec). The CLI and HTTP surfaces
	// default to FP64 explicitly.
	Precs []prec.Precision
}

// normalized returns the spec with the software-config defaults filled
// in: Threads [0], Placements [Block], Precs [FP32].
func (s CampaignSpec) normalized() CampaignSpec {
	if len(s.Threads) == 0 {
		s.Threads = []int{0}
	}
	if len(s.Placements) == 0 {
		s.Placements = []placement.Policy{placement.Block}
	}
	if len(s.Precs) == 0 {
		s.Precs = []prec.Precision{prec.F32}
	}
	return s
}

// Validate checks the spec and runs every derivation, so a bad request
// fails before any suite evaluation — the same boundary discipline as
// machine JSON specs and sweeps. The compiled plan is memoized, so
// validating and then evaluating a spec plans it once.
func (s CampaignSpec) Validate() error {
	_, err := planFor(s)
	return err
}

// Points returns the size of the expanded grid (0 when the spec is
// invalid).
func (s CampaignSpec) Points() int {
	plan, err := planFor(s)
	if err != nil {
		return 0
	}
	return plan.n
}

// Fingerprints returns the derived machine fingerprint of every grid
// point, in grid order. The distributed fabric (internal/fabric) keys
// its consistent-hash shard assignment on these, so every point of one
// derived machine lands on the same worker and each shard owns a
// stable slice of the suite cache. The fingerprints come straight off
// the compiled plan — one hash per unique derived machine, decoded to
// points arithmetically, never one per point.
func (s CampaignSpec) Fingerprints() ([]uint64, error) {
	plan, err := planFor(s)
	if err != nil {
		return nil, err
	}
	fps := make([]uint64, plan.n)
	soft := plan.softPerCombo()
	for i := range fps {
		fps[i] = plan.combos[i/soft].fp
	}
	return fps, nil
}

// Title renders the campaign's deterministic heading.
func (s CampaignSpec) Title() string {
	n := s.normalized()
	labels := make([]string, len(n.Bases))
	for i, b := range n.Bases {
		if b != nil {
			labels[i] = b.Label
		}
	}
	var parts []string
	parts = append(parts, strings.Join(labels, ", "))
	for _, ax := range n.Axes {
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = fmt.Sprintf("%g", v)
		}
		parts = append(parts, fmt.Sprintf("%s=%s", ax.Axis, strings.Join(vals, ",")))
	}
	threads := make([]string, len(n.Threads))
	for i, t := range n.Threads {
		if t == 0 {
			threads[i] = "full"
		} else {
			threads[i] = fmt.Sprintf("%d", t)
		}
	}
	parts = append(parts, "threads="+strings.Join(threads, ","))
	pols := make([]string, len(n.Placements))
	for i, pol := range n.Placements {
		pols[i] = pol.String()
	}
	parts = append(parts, strings.Join(pols, ","))
	ps := make([]string, len(n.Precs))
	for i, p := range n.Precs {
		ps[i] = p.String()
	}
	parts = append(parts, strings.Join(ps, ","))
	return fmt.Sprintf("Campaign: %s (%d points)", strings.Join(parts, " x "), s.Points())
}

// CampaignCell is one (point, class) summary: the class's mean modelled
// time at that point and its ratio against the point's base machine
// under the same software configuration.
type CampaignCell struct {
	// Seconds is the mean per-kernel modelled time of the class.
	Seconds float64
	// Ratio summarises the per-kernel ratios base/point (> 1 means the
	// point is faster than its base).
	Ratio stats.Summary
}

// CampaignPoint is one evaluated grid point.
type CampaignPoint struct {
	// Index is the point's position in grid order.
	Index int
	// Base is the base machine's label; Machine is the derived
	// variant's (equal to Base when the campaign has no axes).
	Base    string
	Machine string
	// Values are the axis values applied, aligned with the spec's Axes.
	Values []float64
	// Threads is the resolved thread count the point ran with (the
	// requested count clamped to the variant's cores; 0 resolves to
	// full occupancy).
	Threads   int
	Placement placement.Policy
	Prec      prec.Precision
	// Cores is the variant's core count — one Pareto axis.
	Cores int
	// TotalSeconds is the summed modelled time of the full 64-kernel
	// suite — the other Pareto axis.
	TotalSeconds float64
	// MeanRatio is the grand mean of the per-class mean ratios against
	// the base — the ranking key.
	MeanRatio float64
	// ByClass holds the per-class cells, indexed by class
	// (kernels.Classes order).
	ByClass [kernels.NumClasses]CampaignCell
}

// CampaignResult is an evaluated campaign: every point in grid order
// plus the ranked summaries.
type CampaignResult struct {
	Title  string
	Points []CampaignPoint
	// Ranked lists point indices by descending MeanRatio (ties broken
	// by grid order).
	Ranked []int
	// BestByClass maps each class to the index of the point with the
	// lowest class mean time (ties broken by grid order).
	BestByClass map[kernels.Class]int
	// Pareto lists the indices of the points on the cores x
	// TotalSeconds Pareto front (no other point has both fewer-or-equal
	// cores and less-or-equal time with one strict), sorted by
	// ascending cores.
	Pareto []int
}

// errCampaignAborted cancels remaining grid evaluation after an emit
// failure; Campaign never returns it (the emit error does).
var errCampaignAborted = errors.New("core: campaign aborted by emit failure")

// campaignConfig is the software configuration of one grid point — the
// machine's default compiler in VLS mode, exactly like sweepConfig, so
// equivalent points share cache entries with sweeps.
func campaignConfig(m *machine.Machine, threads int, pol placement.Policy, p prec.Precision) perfmodel.Config {
	if threads <= 0 || threads > m.Cores {
		threads = m.Cores
	}
	return perfmodel.Config{
		Machine: m, Threads: threads, Placement: pol,
		Prec: p, Compiler: perfmodel.DefaultCompilerFor(m), Mode: autovec.VLS,
	}
}

// evalUniq measures one deduplicated evaluation unit — a grid point
// and its base under the same software configuration, both through the
// memoized suite cache — and builds the point template every grid
// point of the unit shares (Index is patched per point at fan-out; the
// Values slice is shared read-only).
func (st *Study) evalUniq(plan *campaignPlan, u planUniq) (CampaignPoint, error) {
	pc := &plan.configs[u.cfg]
	bc := &plan.configs[u.baseCfg]
	cfg := campaignConfig(pc.m, pc.threads, pc.pol, pc.p)
	secs, err := st.runSuiteShared(cfg, st.suiteKeyFP(cfg, pc.fp))
	if err != nil {
		return CampaignPoint{}, err
	}
	bcfg := campaignConfig(bc.m, bc.threads, bc.pol, bc.p)
	base, err := st.runSuiteShared(bcfg, st.suiteKeyFP(bcfg, bc.fp))
	if err != nil {
		return CampaignPoint{}, err
	}
	cells, err := classCells(base, secs)
	if err != nil {
		return CampaignPoint{}, err
	}
	cb := &plan.combos[u.combo]
	p := CampaignPoint{
		Index: -1, Base: bc.m.Label, Machine: pc.m.Label, Values: cb.values,
		Threads: cfg.Threads, Placement: pc.pol, Prec: pc.p, Cores: pc.m.Cores,
		ByClass: cells,
	}
	for _, s := range secs {
		p.TotalSeconds += s
	}
	sum := 0.0
	for _, cell := range cells {
		sum += cell.Ratio.Mean
	}
	p.MeanRatio = sum / float64(kernels.NumClasses)
	return p, nil
}

// Campaign evaluates a multi-axis campaign. Points fan out over the
// study's worker pool into the shared memoized suite cache; when emit
// is non-nil it is called once per point, in grid order, as soon as the
// point and all its predecessors have finished — the streaming surface
// (NDJSON over HTTP) hangs off this hook without disturbing the
// determinism contract, because delivery order is grid order whatever
// the completion order. An emit error aborts the campaign after the
// in-flight evaluations drain.
func (st *Study) Campaign(spec CampaignSpec, emit func(CampaignPoint) error) (CampaignResult, error) {
	plan, err := planFor(spec)
	if err != nil {
		return CampaignResult{}, err
	}
	plan.dedup()
	n := plan.n
	nu := len(plan.uniqs)
	// Workers evaluate deduplicated units, not grid points: colliding
	// points (same derived machine, same clamped threads against variant
	// and base, same placement/precision) share one evaluation and fan
	// out by index below. templates and ready are sized to the units.
	templates := make([]CampaignPoint, nu)
	ready := make([]chan struct{}, nu)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	// An emit failure (a disconnected streaming client) flips aborted;
	// workers check it before each unit so the rest of the grid is
	// cancelled through par's first-error path instead of evaluated for
	// nobody.
	var aborted atomic.Bool
	evalDone := make(chan error, 1)
	go func() {
		evalDone <- par.ForEach(nu, st.Workers, func(u int) error {
			if aborted.Load() {
				return errCampaignAborted
			}
			p, err := st.evalUniq(plan, plan.uniqs[u])
			if err != nil {
				return err
			}
			templates[u] = p
			close(ready[u])
			return nil
		})
	}()

	points := make([]CampaignPoint, n)
	var emitErr error
	pending := evalDone
	for i := 0; i < n && emitErr == nil; i++ {
		u := plan.pointUniq[i]
		if pending != nil {
			select {
			case <-ready[u]:
			case err := <-evalDone:
				pending = nil
				if err != nil {
					return CampaignResult{}, err
				}
				// Evaluation finished cleanly: every unit is ready.
				<-ready[u]
			}
		} else {
			<-ready[u]
		}
		points[i] = templates[u]
		points[i].Index = i
		if emit != nil {
			if emitErr = emit(points[i]); emitErr != nil {
				aborted.Store(true)
			}
		}
	}
	if pending != nil {
		// Drain the evaluation goroutine before returning so no worker
		// writes into points after we hand the result out. A genuine
		// evaluation error still wins over the abort sentinel.
		if err := <-evalDone; err != nil && !errors.Is(err, errCampaignAborted) {
			return CampaignResult{}, err
		}
	}
	if emitErr != nil {
		return CampaignResult{}, emitErr
	}

	res := CampaignResult{Title: spec.Title(), Points: points}
	res.Ranked = rankByMeanRatio(points)
	res.BestByClass = bestByClass(points)
	res.Pareto = paretoFront(points)
	return res, nil
}

// CampaignPoints evaluates only the selected grid points of spec — the
// shard-scoped form the distributed fabric's workers serve. Indices
// index the expanded grid (spec.Points()); they must be in range and
// unique. Points fan out over the study's worker pool into the shared
// memoized suite cache exactly like a full Campaign, and emit is called
// once per point in completion order (serialized — never concurrently).
// Delivery order is unspecified by design: the coordinator reorders
// into grid order, so each evaluated point must be bit-identical to the
// same point of a single-process campaign, which it is — same cache,
// same seeding. An emit error aborts the remaining evaluations.
func (st *Study) CampaignPoints(spec CampaignSpec, indices []int, emit func(CampaignPoint) error) error {
	plan, err := planFor(spec)
	if err != nil {
		return err
	}
	plan.dedup()
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= plan.n {
			return fmt.Errorf("core: campaign point %d out of range (grid has %d points)", i, plan.n)
		}
		if seen[i] {
			return fmt.Errorf("core: campaign point %d requested twice", i)
		}
		seen[i] = true
	}
	// Group the requested indices by evaluation unit (first-occurrence
	// order) so colliding points in one shard evaluate once; each unit's
	// points emit together under the mutex, which preserves the contract
	// — emission is serialized, completion-ordered, unspecified.
	groups := make(map[int32][]int)
	var order []int32
	for _, i := range indices {
		u := plan.pointUniq[i]
		if _, ok := groups[u]; !ok {
			order = append(order, u)
		}
		groups[u] = append(groups[u], i)
	}
	var mu sync.Mutex
	var emitErr error
	err = par.ForEach(len(order), st.Workers, func(k int) error {
		mu.Lock()
		failed := emitErr != nil
		mu.Unlock()
		if failed {
			return errCampaignAborted
		}
		u := order[k]
		p, err := st.evalUniq(plan, plan.uniqs[u])
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if emitErr != nil {
			return errCampaignAborted
		}
		if emit != nil {
			for _, i := range groups[u] {
				p.Index = i
				if emitErr = emit(p); emitErr != nil {
					return emitErr
				}
			}
		}
		return nil
	})
	if errors.Is(err, errCampaignAborted) {
		mu.Lock()
		defer mu.Unlock()
		return emitErr
	}
	return err
}

// AssembleCampaign builds a CampaignResult from already-evaluated
// points — the coordinator's final step after gathering a sharded
// grid. The points must be the full grid in grid order (point i at
// index i); the ranked summaries are then computed exactly as Campaign
// computes them, so an assembled result renders byte-identically to a
// single-process one.
func AssembleCampaign(spec CampaignSpec, points []CampaignPoint) (CampaignResult, error) {
	if err := spec.Validate(); err != nil {
		return CampaignResult{}, err
	}
	if n := spec.Points(); len(points) != n {
		return CampaignResult{}, fmt.Errorf("core: assembling campaign from %d points, grid has %d", len(points), n)
	}
	for i := range points {
		if points[i].Index != i {
			return CampaignResult{}, fmt.Errorf("core: campaign point at position %d has index %d", i, points[i].Index)
		}
	}
	res := CampaignResult{Title: spec.Title(), Points: points}
	res.Ranked = rankByMeanRatio(points)
	res.BestByClass = bestByClass(points)
	res.Pareto = paretoFront(points)
	return res, nil
}

// rankByMeanRatio orders point indices by descending MeanRatio, grid
// order breaking ties (a stable sort).
func rankByMeanRatio(points []CampaignPoint) []int {
	out := make([]int, len(points))
	for i := range out {
		out[i] = i
	}
	slices.SortStableFunc(out, func(a, b int) int {
		switch ra, rb := points[a].MeanRatio, points[b].MeanRatio; {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return 0
	})
	return out
}

// bestByClass finds, per class, the point with the lowest class mean
// time.
func bestByClass(points []CampaignPoint) map[kernels.Class]int {
	out := make(map[kernels.Class]int)
	if len(points) == 0 {
		return out
	}
	for _, class := range kernels.Classes {
		best := 0
		for i := range points {
			if points[i].ByClass[class].Seconds < points[best].ByClass[class].Seconds {
				best = i
			}
		}
		out[class] = best
	}
	return out
}

// paretoFront returns the indices of the points minimizing TotalSeconds
// per core budget: sorted by (cores, time, index), a point joins the
// front when it is strictly faster than everything with fewer or equal
// cores before it.
func paretoFront(points []CampaignPoint) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := &points[a], &points[b]
		if pa.Cores != pb.Cores {
			return cmp.Compare(pa.Cores, pb.Cores)
		}
		if pa.TotalSeconds != pb.TotalSeconds {
			return cmp.Compare(pa.TotalSeconds, pb.TotalSeconds)
		}
		return cmp.Compare(a, b)
	})
	var front []int
	best := 0.0
	for k, i := range order {
		if k == 0 || points[i].TotalSeconds < best {
			front = append(front, i)
			best = points[i].TotalSeconds
		}
	}
	return front
}
