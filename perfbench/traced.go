package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro"
	"repro/internal/autovec"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/suite"
)

// Traced-run sizes.
const (
	// referenceCampaigns is the size of each untraced campaign pass.
	referenceCampaigns = 10
	// tracedRounds x tracedPerRound is the traced campaign pass, with
	// as many untraced campaigns between. Every traced campaign also
	// parses one sibling spec. Like a round, the run first plans the
	// filler specs that fill the process-wide caches.
	tracedRounds   = 2
	tracedPerRound = 6
	// hotTracedPerSecond sizes each of serve-hot's three passes.
	hotTracedPerSecond = 1000
	// hotProbes is how many times serve-hot's campaign spec goes
	// through the direct layer calls.
	hotProbes = 30
)

// tracedRun measures the per-layer metrics: an untraced pass of the
// workload for the runtime counters; a pass sending the same requests
// to a local daemon and to a fleet for fabric.overhead_ratio; the
// traced pass, whose operations alternate with untraced ones for the
// tracing overhead; and direct calls into each layer's public
// functions on the workload's own campaign specs.
func tracedRun(cfg config) (*report, error) {
	tr := newTracer()
	c := newClient()
	defer c.close()
	rep := &report{}
	var err error
	if cfg.workload == "serve-hot" {
		err = tracedHot(cfg, tr, c, rep)
	} else {
		err = tracedCampaigns(cfg, tr, c, rep)
	}
	if err != nil {
		return nil, err
	}
	path, err := tr.write(cfg.spans, fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.input("spans=%s (%d spans)", path, len(tr.spans))
	return rep, nil
}

// runtimeSample is a snapshot of the process's allocation and GC
// counters.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// addRuntime reports the counters' deltas per operation.
func addRuntime(rep *report, a, b runtimeSample, ops int) {
	rep.add("runtime.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), ops, "untraced pass, whole process")
	rep.add("runtime.alloc_mb_per_op", float64(b.bytes-a.bytes)/1e6/float64(ops), ops, "untraced pass, whole process")
	rep.add("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/(b.allCPU-a.allCPU), ops, "GC share of process CPU, untraced pass")
}

// pairedCampaigns sends each of n fresh specs to a local daemon and to
// a coordinator over two workers, alternating which goes first, checks
// that both answer the same bytes, and returns both tiers' latencies.
func pairedCampaigns(c *client, gen *specGen, n int, rep *report) (local, fleet []time.Duration, err error) {
	lt, err := startLocal(c, wrappers{}, false)
	if err != nil {
		return nil, nil, err
	}
	defer lt.stop()
	ft, err := startFleet(c, wrappers{})
	if err != nil {
		return nil, nil, err
	}
	defer func() { ft.stop(); c.close() }()
	for i := 0; i <= n; i++ {
		spec := gen.next()
		tiers := []*tier{lt, ft}
		if i%2 == 1 {
			tiers = []*tier{ft, lt}
		}
		var lat [2]time.Duration
		var sums [2]digest
		rep.attempted++
		for j, t := range tiers {
			lat[j], err = c.do("POST", t.front.url+campaignPath, spec)
			if err == nil {
				err = checkCampaignBody(c.buf.Bytes(), gridPoints)
			}
			if err != nil {
				break
			}
			sums[j] = digestOf(c.buf.Bytes())
		}
		if err == nil {
			err = checkDigests(sums[:1], sums[1:])
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		if i == 0 {
			continue // warm-up: engines load their base configurations
		}
		if tiers[0] == ft {
			lat[0], lat[1] = lat[1], lat[0]
		}
		local, fleet = append(local, lat[0]), append(fleet, lat[1])
	}
	return local, fleet, nil
}

// probe is the direct-call fixture: an engine and a two-worker fleet
// with a coordinator, each separate from the workload's servers.
type probe struct {
	tr    *tracer
	eng   *repro.Engine
	fleet *tier
	coord *fabric.Coordinator
	hc    *http.Client
	model *perfmodel.Model
	reg   *repro.MachineRegistry
	specs []repro.KernelSpec
}

func newProbe(tr *tracer, c *client) (*probe, error) {
	fleet, err := startWorkers(c, wrappers{worker: tr.workerMiddleware})
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	coord, err := fabric.NewCoordinator(fleet.urls(), nil, hc)
	if err != nil {
		fleet.stop()
		return nil, err
	}
	return &probe{
		tr: tr, eng: repro.NewEngine(repro.Options{}), fleet: fleet, coord: coord, hc: hc,
		model: perfmodel.New(), reg: repro.DefaultMachineRegistry(), specs: suite.All(),
	}, nil
}

func (p *probe) stop() {
	p.fleet.stop()
	p.hc.CloseIdleConnections()
}

// run times one campaign spec through each layer's public function:
// the spec parse (of parseBody, which is a sibling spec of the same
// shape when body itself was already parsed and planned by a daemon),
// the engine's point evaluation, one perfmodel suite evaluation per
// unique configuration, the summary, and the fabric coordinator.
func (p *probe) run(body, parseBody []byte) error {
	tr := p.tr
	if _, err := tr.timed("core.spec", func() error {
		_, err := repro.CampaignSpecFromJSON(parseBody, p.reg)
		return err
	}); err != nil {
		return err
	}
	spec, err := repro.CampaignSpecFromJSON(body, p.reg)
	if err != nil {
		return err
	}
	n := spec.Points()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	points := make([]repro.CampaignPoint, n)
	_, m0 := p.eng.CacheStats()
	s := tr.begin("core.eval")
	err = p.eng.CampaignPoints(spec, all, func(pt repro.CampaignPoint) error {
		points[pt.Index] = pt
		return nil
	})
	s.End = tr.now()
	_, m1 := p.eng.CacheStats()
	s.Evals, s.Points = int64(m1-m0), int64(n)
	tr.finish(s)
	if err != nil {
		return err
	}

	cfgs, err := p.configs(spec, points)
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		if _, err := tr.timed("perfmodel.suite", func() error {
			_, err := p.model.SuiteTimes(p.specs, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	if _, err := tr.timed("summary.assemble", func() error {
		_, err := repro.AssembleCampaignResult(spec, points)
		return err
	}); err != nil {
		return err
	}
	_, err = tr.timed("fabric.coord", func() error {
		_, err := p.coord.Run(context.Background(), body, nil)
		return err
	})
	return err
}

// configs lists the unique suite configurations of a campaign's points
// (the campaign's own configuration rule: the variant's default
// compiler in VLS mode at the point's resolved thread count).
func (p *probe) configs(spec repro.CampaignSpec, points []repro.CampaignPoint) ([]perfmodel.Config, error) {
	type key struct {
		variant string // base label and axis values
		threads int
		pol     int
		prec    int
	}
	seen := map[key]bool{}
	variants := map[string]*machine.Machine{}
	var out []perfmodel.Config
	for _, pt := range points {
		variant := fmt.Sprint(pt.Base, pt.Values)
		k := key{variant, pt.Threads, int(pt.Placement), int(pt.Prec)}
		if seen[k] {
			continue
		}
		seen[k] = true
		m, ok := variants[variant]
		if !ok {
			base, found := p.reg.Get(pt.Base)
			if !found {
				return nil, fmt.Errorf("probe: unknown base %s", pt.Base)
			}
			var err error
			if m, err = derive(base, spec.Axes, pt.Values); err != nil {
				return nil, err
			}
			variants[variant] = m
		}
		out = append(out, perfmodel.Config{
			Machine: m, Threads: pt.Threads, Placement: pt.Placement, Prec: pt.Prec,
			Compiler: perfmodel.DefaultCompilerFor(m), Mode: autovec.VLS,
		})
	}
	return out, nil
}

// derive applies a point's axis values to its base in axis order.
func derive(m *machine.Machine, axes []repro.CampaignAxis, values []float64) (*machine.Machine, error) {
	var err error
	for i, ax := range axes {
		v := values[i]
		switch ax.Axis {
		case repro.SweepClock:
			m, err = m.WithClock(v * 1e9)
		case repro.SweepVector:
			m, err = m.WithVectorBits(int(v))
		case repro.SweepNUMA:
			m, err = m.WithNUMARegions(int(v))
		case repro.SweepCores:
			m, err = m.WithCores(int(v))
		default:
			return nil, fmt.Errorf("probe: axis %s not supported", ax.Axis)
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// tracedCampaigns is the traced run of campaign-local and
// campaign-fabric.
func tracedCampaigns(cfg config, tr *tracer, c *client, rep *report) error {
	fabricW := cfg.workload == "campaign-fabric"
	if err := fillProcessCaches(cfg.seed); err != nil {
		return err
	}
	gen := newSpecGen(cfg.seed)

	own, err := campaignPass(c, gen, fabricW, referenceCampaigns, rep)
	if err != nil {
		return err
	}
	addRuntime(rep, own.before, own.after, len(own.lat))
	local, fleet, err := pairedCampaigns(c, gen, referenceCampaigns, rep)
	if err != nil {
		return err
	}

	// Each round: one warm-up, then traced campaigns (each followed by
	// the direct calls on its spec) alternating with untraced ones sent
	// with the middleware paused, every campaign starting after a GC.
	var client []span
	var untraced []time.Duration
	var renderHits, renderMisses uint64
	for r := 0; r < tracedRounds; r++ {
		front := tr.middleware("serve.handler", 0, false, func(p string) bool { return p == "/v1/campaign" })
		t, err := startTier(c, fabricW, wrappers{front: front, worker: tr.workerMiddleware})
		if err != nil {
			return err
		}
		pr, err := newProbe(tr, c)
		if err != nil {
			t.stop()
			return err
		}
		rh0, rm0, err := c.renderCounts(t.front.url)
		for k := 0; k <= 2*tracedPerRound && err == nil; k++ {
			spec := gen.next()
			rep.attempted++
			// The direct calls after a traced campaign leave garbage;
			// collecting before every campaign keeps that debt off the
			// untraced one that follows.
			runtime.GC()
			if k > 0 && k%2 == 0 {
				tr.off.Store(true)
				d, rerr := c.do("POST", t.front.url+campaignPath, spec)
				tr.off.Store(false)
				if rerr == nil {
					rerr = checkCampaignBody(c.buf.Bytes(), gridPoints)
				}
				if rerr != nil {
					rep.fail(rerr)
					continue
				}
				untraced = append(untraced, d)
				continue
			}
			op := int64(r*tracedPerRound + (k+1)/2)
			if k == 0 {
				op = 0 // warm-up: engines load their base configurations
			}
			tr.op.Store(op)
			sibling := gen.next()
			s, rerr := tr.timed("client.request", func() error {
				_, err := c.do("POST", t.front.url+campaignPath, spec)
				return err
			})
			if rerr == nil {
				rerr = checkCampaignBody(c.buf.Bytes(), gridPoints)
			}
			if rerr == nil {
				rerr = pr.run(spec, sibling)
			}
			if rerr != nil {
				rep.fail(rerr)
				continue
			}
			if op > 0 {
				client = append(client, s)
			}
		}
		tr.op.Store(0)
		var rh1, rm1 uint64
		if err == nil {
			rh1, rm1, err = c.renderCounts(t.front.url)
		}
		renderHits, renderMisses = renderHits+rh1-rh0, renderMisses+rm1-rm0
		pr.stop()
		t.stop()
		c.close()
		if err != nil {
			return err
		}
	}

	// The handler's own work: what remains after the layers it calls,
	// timed on the same spec by the direct calls. On the fabric the
	// evaluation is the part of the handler span its own workers'
	// spans cover.
	ops := tr.byOp()
	self := func(cs, h span) (float64, bool) {
		o := ops[cs.Op]
		inner := o["core.spec"][0].dur() + o["summary.assemble"][0].dur()
		if fabricW {
			var ws []span
			for _, w := range o["fabric.worker"] {
				if w.Parent == h.ID {
					ws = append(ws, w)
				}
			}
			inner += covered(h, ws)
		} else {
			inner += o["core.eval"][0].dur()
		}
		return float64(h.dur()-inner) / 1e6, true
	}
	selfNote := "handler - (spec + eval + assemble)"
	if fabricW {
		selfNote = "handler - (spec + its workers' spans + assemble)"
	}
	if err := addLayers(rep, ops, client, self, "campaign POSTs", selfNote, renderHits, renderMisses); err != nil {
		return err
	}
	addOverheads(rep, local, fleet, "the same specs sent to both",
		durs(client), untraced, "campaigns alternating on the same servers")
	return nil
}

// addLayers reports every per-layer metric of a traced run from its
// spans by operation: the direct-call layers, the fabric, and the
// handler side of the traced requests, pairing each client span with
// its operation's handler span. self gives a request's handler self
// time in ms, false to leave the request out of serve.handler_self_ms;
// hits and misses are the render cache's counts over the traced pass.
func addLayers(rep *report, ops map[int64]map[string][]span, client []span,
	self func(cs, h span) (float64, bool), handlerNote, selfNote string, hits, misses uint64) error {
	addCoreLayers(rep, ops)
	var handler, selfMS, gap, flushes, bytes []float64
	for _, cs := range client {
		hh := ops[cs.Op]["serve.handler"]
		if len(hh) != 1 {
			return fmt.Errorf("request %d has %d handler spans", cs.Op, len(hh))
		}
		h := hh[0]
		handler = append(handler, float64(h.dur())/1e3)
		gap = append(gap, float64(cs.dur()-h.dur())/1e3)
		flushes = append(flushes, float64(h.Flushes))
		bytes = append(bytes, float64(h.Bytes))
		if v, ok := self(cs, h); ok {
			selfMS = append(selfMS, v)
		}
	}
	rep.add("serve.handler_us", median(handler), len(handler), handlerNote)
	rep.add("serve.handler_self_ms", median(selfMS), len(selfMS), selfNote)
	rep.add("serve.flushes", mean(flushes), len(flushes), "per response (table only)")
	rep.add("serve.response_bytes", mean(bytes), len(bytes), "per response")
	rep.add("serve.render_hit_ratio", ratio(hits, hits+misses), int(hits+misses), "/metrics delta over the traced pass")
	rep.add("transport.gap_us", median(gap), len(gap), "client time - handler span")
	addFabricLayers(rep, ops)
	return nil
}

// addOverheads reports fabric.overhead_ratio from the same requests
// sent to a local daemon and to a fleet, and trace.overhead_share from
// traced and untraced requests alternating on the same servers.
func addOverheads(rep *report, local, fleet []time.Duration, fleetNote string, traced, untraced []time.Duration, traceNote string) {
	lp50, fp50 := median(in(local, time.Millisecond)), median(in(fleet, time.Millisecond))
	rep.add("fabric.overhead_ratio", fp50/lp50, len(fleet),
		fmt.Sprintf("campaign_ms_p50 fabric %.4f / local %.4f, %s", fp50, lp50, fleetNote))
	tp50, up50 := median(in(traced, time.Microsecond)), median(in(untraced, time.Microsecond))
	rep.add("trace.overhead_share", tp50/up50-1, len(traced),
		fmt.Sprintf("p50 traced %.1f us vs untraced %.1f us, %s", tp50, up50, traceNote))
}

func durs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// addCoreLayers reports the direct-call layers below the handler.
func addCoreLayers(rep *report, ops map[int64]map[string][]span) {
	var spec, eval, evals, dedup, suiteUS, busy, assemble []float64
	for _, o := range ops {
		for _, s := range o["core.spec"] {
			spec = append(spec, float64(s.dur())/1e3)
		}
		for _, s := range o["summary.assemble"] {
			assemble = append(assemble, float64(s.dur())/1e6)
		}
		for _, s := range o["perfmodel.suite"] {
			suiteUS = append(suiteUS, float64(s.dur())/1e3)
		}
		if len(o["core.eval"]) != 1 {
			continue
		}
		e := o["core.eval"][0]
		eval = append(eval, float64(e.dur())/1e6)
		evals = append(evals, float64(e.Evals))
		dedup = append(dedup, 1-float64(e.Evals)/float64(e.Points))
		// The model time the engine spent: the configurations it
		// evaluated (its cache misses) at their measured cost.
		var model time.Duration
		for _, s := range o["perfmodel.suite"] {
			model += s.dur()
		}
		if n := len(o["perfmodel.suite"]); n > 0 {
			model = model * time.Duration(e.Evals) / time.Duration(n)
		}
		busy = append(busy, float64(model)/float64(e.dur())/float64(runtime.GOMAXPROCS(0)))
	}
	rep.add("core.spec_us", median(spec), len(spec), "repro.CampaignSpecFromJSON")
	rep.add("core.eval_ms", median(eval), len(eval), "Engine.CampaignPoints, full grid")
	rep.add("core.unique_evals", median(evals), len(evals), "suite-cache misses per campaign")
	rep.add("core.dedup_share", median(dedup), len(dedup), "1 - unique evaluations / points")
	rep.add("perfmodel.suite_us", median(suiteUS), len(suiteUS), "Model.SuiteTimes per unique configuration")
	rep.add("perfmodel.busy_share", median(busy), len(busy), "model time of the evaluated configs / (eval span x GOMAXPROCS)")
	rep.add("summary.assemble_ms", median(assemble), len(assemble), "repro.AssembleCampaignResult")
}

// addFabricLayers reports the direct coordinator run and its workers'
// points handlers.
func addFabricLayers(rep *report, ops map[int64]map[string][]span) {
	var coord, busy, imbalance, self, frames, frameBytes, flushes []float64
	for _, o := range ops {
		if len(o["fabric.coord"]) != 1 {
			continue
		}
		cs := o["fabric.coord"][0]
		coord = append(coord, float64(cs.dur())/1e6)
		per := map[int]time.Duration{}
		var ws []span
		var fr, fb, fl int64
		for _, w := range o["fabric.worker"] {
			if w.Parent != cs.ID {
				continue
			}
			ws = append(ws, w)
			per[w.Worker] += w.dur()
			fr, fb, fl = fr+w.Frames, fb+w.Bytes, fl+w.Flushes
		}
		if len(per) == 0 {
			continue
		}
		var lo, hi, tot time.Duration
		for _, d := range per {
			if lo == 0 || d < lo {
				lo = d
			}
			hi = max(hi, d)
			tot += d
		}
		busy = append(busy, float64(tot)/float64(len(per))/1e6)
		imbalance = append(imbalance, float64(hi)/float64(lo))
		self = append(self, float64(cs.dur()-covered(cs, ws))/1e6)
		frames = append(frames, float64(fr))
		frameBytes = append(frameBytes, float64(fb))
		flushes = append(flushes, float64(fl))
	}
	rep.add("fabric.coord_ms", median(coord), len(coord), "Coordinator.Run over 2 workers")
	rep.add("fabric.worker_busy_ms", median(busy), len(busy), "points-handler time per worker per campaign")
	rep.add("fabric.worker_imbalance", median(imbalance), len(imbalance), "max / min worker busy")
	rep.add("fabric.coord_self_ms", median(self), len(self), "coordinator span not covered by a worker span")
	rep.add("fabric.frames", median(frames), len(frames), "per campaign")
	rep.add("fabric.frame_bytes", median(frameBytes), len(frameBytes), "per campaign")
	rep.add("fabric.flushes", median(flushes), len(flushes), "per campaign (table only)")
}

// covered is how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var tot, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		tot += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(tot)
}
