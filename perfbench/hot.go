package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"
)

// seededTargets returns the serve-hot mix in the round-robin order the
// seed picks.
func seededTargets(seed uint64) []hotTarget {
	targets := hotTargets()
	rng := rand.New(rand.NewPCG(seed, 0x5e2044))
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	return targets
}

// hotSamples is one serve-hot pass: every successful request's client
// latency and campaign points served, the campaign targets' latencies,
// and in a traced pass the client span of each traced request and the
// latencies of the untraced ones.
type hotSamples struct {
	all, campaign []time.Duration
	points        []int
	client        []span
	untraced      []time.Duration
}

// rates returns, per cycle of cycle requests through the mix, the
// requests and the campaign points served per second of client wait.
// A cycle lasts about a millisecond, so a stall of the shared host
// lands in few cycles, and the median over cycles is the loop's
// typical rate.
func (hs hotSamples) rates(cycle int) (requests, points []float64) {
	for i := 0; i+cycle <= len(hs.all); i += cycle {
		wait := sum(in(hs.all[i:i+cycle], time.Second))
		n := 0
		for _, p := range hs.points[i : i+cycle] {
			n += p
		}
		requests = append(requests, float64(cycle)/wait)
		points = append(points, float64(n)/wait)
	}
	return requests, points
}

// hotLoop sends n requests round-robin over targets, each body checked
// against its warm-pass bytes. With a tracer, every other cycle through
// the targets is traced: request k is operation first+k and keeps its
// client-side span, and the cycles between run with the middleware
// paused.
func hotLoop(c *client, url string, targets []hotTarget, warm [][]byte, n int, rep *report, tr *tracer, first int64) hotSamples {
	var out hotSamples
	out.all = make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		tg := targets[k%len(targets)]
		traced := tr != nil && (k/len(targets))%2 == 0
		rep.attempted++
		var (
			d   time.Duration
			err error
			s   span
		)
		if traced {
			tr.off.Store(false)
			tr.op.Store(first + int64(k))
			s, err = tr.timed("client.request", func() error {
				_, err := c.do(tg.method, url+tg.path, tg.body)
				return err
			})
			d = s.dur()
		} else {
			if tr != nil {
				tr.off.Store(true)
			}
			d, err = c.do(tg.method, url+tg.path, tg.body)
		}
		if err == nil && !bytes.Equal(c.buf.Bytes(), warm[k%len(targets)]) {
			err = fmt.Errorf("%s: body differs from its warm-pass bytes", tg.name)
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		out.all = append(out.all, d)
		out.points = append(out.points, tg.points)
		switch {
		case traced:
			out.client = append(out.client, s)
		case tr != nil:
			out.untraced = append(out.untraced, d)
		}
		if tg.points > 0 {
			out.campaign = append(out.campaign, d)
		}
	}
	if tr != nil {
		tr.off.Store(false)
		tr.op.Store(0)
	}
	return out
}

// warmPass requests every target once, checks each body by its format
// and returns copies of the bodies.
func warmPass(c *client, url string, targets []hotTarget) ([][]byte, error) {
	out := make([][]byte, len(targets))
	for i, tg := range targets {
		if _, err := c.do(tg.method, url+tg.path, tg.body); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		if err := checkHotBody(tg, c.buf.Bytes()); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		out[i] = bytes.Clone(c.buf.Bytes())
	}
	return out, nil
}

// hotRun measures serve-hot: a prewarmed daemon, one warm pass over the
// target mix capturing every body, then a round-robin over the mix in
// which every body must equal its warm-pass bytes.
func hotRun(cfg config) (*report, error) {
	c := newClient()
	defer c.close()
	rep := &report{}
	targets := seededTargets(cfg.seed)

	t, setups, err := startRepeated(c, func() (*tier, error) { return startLocal(c, wrappers{}, true) })
	if err != nil {
		return nil, err
	}
	defer t.stop()
	warm, err := warmPass(c, t.front.url, targets)
	if err != nil {
		return nil, err
	}
	rh0, rm0, err := c.renderCounts(t.front.url)
	if err != nil {
		return nil, err
	}
	hs := hotLoop(c, t.front.url, targets, warm, cfg.seconds*requestsPerSecond, rep, nil, 0)
	rh1, rm1, err := c.renderCounts(t.front.url)
	if err != nil {
		return nil, err
	}

	requests, points := hs.rates(len(targets))
	ms := in(hs.campaign, time.Millisecond)
	us := in(hs.all, time.Microsecond)
	rep.add("setup_s", median(setups), len(setups), "median server construction, bind, Prewarm and readiness")
	rep.add("points_per_s", median(points), len(hs.all), fmt.Sprintf("campaign points served / client wait; median over %d cycles of the mix", len(points)))
	rep.add("campaign_ms_p50", median(ms), len(ms), "the mix's cached campaign requests")
	rep.add("campaign_ms_p90", quantile(ms, 0.9), len(ms), "the mix's cached campaign requests")
	rep.add("requests_per_s", median(requests), len(hs.all), fmt.Sprintf("requests / client wait; median over %d cycles of the mix", len(requests)))
	rep.add("request_us_p50", median(us), len(us), "")
	rep.add("request_us_p99", quantile(us, 0.99), len(us), "")
	c.buf = bytes.Buffer{} // the live heap is the daemon's, not the last body
	rep.add("heap_mb", liveHeapMB(), 1, "live heap after GC at the end of the run; the samples are dead by then")
	rep.add("error_rate", float64(rep.failed)/float64(rep.attempted), rep.attempted, "failed or invalid / attempted (table only)")
	rep.input("render_hit_share=%.4f (%d hits, %d misses over the measured requests)",
		ratio(rh1-rh0, rh1-rh0+rm1-rm0), rh1-rh0, rm1-rm0)
	rep.input("targets=%d (cmd/sg2042load's default mix, identity encoding)", len(targets))
	rep.input("cycle_requests_per_s quartiles=%.0f %.0f %.0f", quantile(requests, 0.25), median(requests), quantile(requests, 0.75))
	return rep, nil
}

// hotPass is an untraced serve-hot pass on a fresh prewarmed daemon,
// with the process counters around the timed requests.
func hotPass(c *client, targets []hotTarget, n int, rep *report) (hotSamples, runtimeSample, runtimeSample, error) {
	t, err := startLocal(c, wrappers{}, true)
	if err != nil {
		return hotSamples{}, runtimeSample{}, runtimeSample{}, err
	}
	defer func() { t.stop(); c.close() }()
	warm, err := warmPass(c, t.front.url, targets)
	if err != nil {
		return hotSamples{}, runtimeSample{}, runtimeSample{}, err
	}
	before := sampleRuntime()
	hs := hotLoop(c, t.front.url, targets, warm, n, rep, nil, 0)
	return hs, before, sampleRuntime(), nil
}

// pairedHot sends n requests to a prewarmed local daemon and n to a
// coordinator over two workers warmed by the warm pass, alternating
// whole cycles through the targets between the two, and returns the
// cached campaign requests' latencies on each.
func pairedHot(c *client, targets []hotTarget, n int, rep *report) (local, fleet []time.Duration, err error) {
	lt, err := startLocal(c, wrappers{}, true)
	if err != nil {
		return nil, nil, err
	}
	defer lt.stop()
	ft, err := startFleet(c, wrappers{})
	if err != nil {
		return nil, nil, err
	}
	defer func() { ft.stop(); c.close() }()
	lw, err := warmPass(c, lt.front.url, targets)
	if err != nil {
		return nil, nil, err
	}
	fw, err := warmPass(c, ft.front.url, targets)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < n; k += len(targets) {
		local = append(local, hotLoop(c, lt.front.url, targets, lw, len(targets), rep, nil, 0).campaign...)
		fleet = append(fleet, hotLoop(c, ft.front.url, targets, fw, len(targets), rep, nil, 0).campaign...)
	}
	return local, fleet, nil
}

// tracedHot is serve-hot's traced run. Its direct layer calls run the
// mix's own campaign spec against a warm engine and fleet — the state
// of a hot daemon — and none of those layers runs on the hot path,
// which serve.render_hit_ratio shows.
func tracedHot(cfg config, tr *tracer, c *client, rep *report) error {
	targets := seededTargets(cfg.seed)
	n := cfg.seconds * hotTracedPerSecond
	own, before, after, err := hotPass(c, targets, n, rep)
	if err != nil {
		return err
	}
	addRuntime(rep, before, after, len(own.all))
	local, fleet, err := pairedHot(c, targets, n, rep)
	if err != nil {
		return err
	}

	front := tr.middleware("serve.handler", 0, false, func(p string) bool { return p != "/metrics" && p != "/healthz" })
	t, err := startLocal(c, wrappers{front: front}, true)
	if err != nil {
		return err
	}
	warm, err := warmPass(c, t.front.url, targets)
	if err != nil {
		t.stop()
		return err
	}
	rh0, rm0, err := c.renderCounts(t.front.url)
	if err != nil {
		t.stop()
		return err
	}
	hs := hotLoop(c, t.front.url, targets, warm, n, rep, tr, 1)
	rh1, rm1, err := c.renderCounts(t.front.url)
	t.stop()
	c.close()
	if err != nil {
		return err
	}

	pr, err := newProbe(tr, c)
	if err != nil {
		return err
	}
	for k := 0; k <= hotProbes; k++ {
		op := int64(n + k)
		if k == 0 {
			op = 0 // warm-up: the engine and fleet load the spec's configurations
		}
		tr.op.Store(op)
		rep.attempted++
		if err := pr.run([]byte(hotCampaignBody), []byte(hotCampaignBody)); err != nil {
			rep.fail(err)
		}
	}
	tr.op.Store(0)
	pr.stop()

	ops := tr.byOp()
	var specUS []float64
	for _, o := range ops {
		for _, s := range o["core.spec"] {
			specUS = append(specUS, float64(s.dur())/1e3)
		}
	}
	parse := median(specUS)
	// A render hit skips eval and summary: a campaign request's own
	// handler work is what remains after the spec parse.
	self := func(cs, h span) (float64, bool) {
		if targets[(cs.Op-1)%int64(len(targets))].points == 0 {
			return 0, false
		}
		return (float64(h.dur())/1e3 - parse) / 1e3, true
	}
	if err := addLayers(rep, ops, hs.client, self, "every request of the mix",
		"campaign requests: handler - spec parse", rh1-rh0, rm1-rm0); err != nil {
		return err
	}
	addOverheads(rep, local, fleet, "the mix's cached campaigns, alternating untraced cycles",
		durs(hs.client), hs.untraced, "every request, alternating cycles on one daemon")
	return nil
}
