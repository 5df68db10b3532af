package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
)

// Operation counts. A run sends a fixed number of operations, set by
// -seconds, so a faster build finishes sooner instead of doing (and
// holding on the heap) more work.
const (
	// campaignsPerSecond sizes the campaign workloads: a cold campaign
	// takes about 90 ms on a 2-CPU host, so -seconds 20 sends 200 of
	// them in about 18 s (the fabric's local reference pass comes on
	// top).
	campaignsPerSecond = 10
	// maxCampaigns keeps a run inside the clock values one generator
	// can draw without repeating.
	maxCampaigns = 1000
	// campaignsPerRound is one round: one process, fresh servers, one
	// warm-up campaign, then this many timed ones. A round holds its
	// bodies in the render cache and ~1500 suite-cache entries per
	// campaign, so this bounds the live heap.
	campaignsPerRound = 20
	// pastCapSpecs is how many filler specs a process plans before its
	// timed campaigns: as many distinct campaigns as the engine's
	// process-wide plan cache admits (128). A long-lived daemon is past
	// that point after its first 128 distinct campaigns: every new
	// spec's plan is rebuilt on each call that needs it, and the
	// derivation memo (4096 machines, 64 new ones per spec here) is
	// full, so each new clock value derives per call too.
	pastCapSpecs = 128
	// requestsPerSecond sizes serve-hot.
	requestsPerSecond = 10000
	// setupRepeats is how many times a round or a serve-hot run sets
	// its servers up; the reported setup_s is the median.
	setupRepeats = 15
)

const campaignPath = "/v1/campaign?format=ndjson"

// startTier sets up the workload's servers: one daemon, or a
// coordinator over two workers.
func startTier(c *client, fabric bool, wr wrappers) (*tier, error) {
	if fabric {
		return startFleet(c, wr)
	}
	return startLocal(c, wr, false)
}

// startRepeated sets servers up setupRepeats times with start, keeping
// the last set up, and returns it with every set-up's duration in
// seconds.
func startRepeated(c *client, start func() (*tier, error)) (*tier, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		t, err := start()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return t, setups, nil
		}
		t.stop()
		c.close()
	}
}

// fillProcessCaches plans pastCapSpecs filler specs and evaluates
// none, so the timed campaigns meet the process-wide plan cache and
// derivation memo full, as a daemon does once it has served 128
// distinct campaigns. The fillers' clocks never equal a timed spec's.
func fillProcessCaches(seed uint64) error {
	g := newFillerGen(seed)
	for i := 0; i < pastCapSpecs; i++ {
		if _, err := repro.CampaignSpecFromJSON(g.next(), nil); err != nil {
			return fmt.Errorf("filler spec %d: %w", i, err)
		}
	}
	return nil
}

func endToEndRun(cfg config) (*report, error) {
	if cfg.workload == "serve-hot" {
		return hotRun(cfg)
	}
	return campaignRun(cfg)
}

// campaignOp is one timed campaign: its spec and the SHA-256 of the
// body the workload's tier answered.
type campaignOp struct {
	spec   []byte
	digest digest
}

// roundResult is what one campaign round reports to the parent process.
type roundResult struct {
	SetupS       []float64 `json:"setup_s"`
	HeapMB       float64   `json:"heap_mb"`
	LatencyNS    []int64   `json:"latency_ns"`
	Digests      []string  `json:"digests"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	FirstFailure string    `json:"first_failure,omitempty"`
	Evals        uint64    `json:"evals"`
	RenderHits   uint64    `json:"render_hits"`
	RenderMisses uint64    `json:"render_misses"`
}

// campaignCount is the number of timed campaigns a run of the given
// length sends.
func campaignCount(seconds int) int {
	return min(seconds*campaignsPerSecond, maxCampaigns)
}

// campaignRun measures campaign-local or campaign-fabric: rounds of
// cold campaigns, each in its own child process (campaignRound) so
// that neither the live heap nor the process-wide caches grow with the
// run's length.
func campaignRun(cfg config) (*report, error) {
	fabric := cfg.workload == "campaign-fabric"
	n := campaignCount(cfg.seconds)
	rounds := (n + campaignsPerRound - 1) / campaignsPerRound
	rep := &report{}
	var setups, heaps, roundP50, roundRate []float64
	var lat []time.Duration
	var evals, renderHits, renderMisses uint64
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		res, err := runRound(cfg, r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rep.attempted += res.Attempted
		rep.failed += res.Failed
		if rep.firstFailure == "" {
			rep.firstFailure = res.FirstFailure
		}
		setups = append(setups, res.SetupS...)
		heaps = append(heaps, res.HeapMB)
		var rl []time.Duration
		for _, ns := range res.LatencyNS {
			rl = append(rl, time.Duration(ns))
		}
		if len(rl) > 0 {
			lat = append(lat, rl...)
			roundP50 = append(roundP50, median(in(rl, time.Millisecond)))
			roundRate = append(roundRate, float64(len(rl))/sum(in(rl, time.Second)))
		}
		for _, d := range res.Digests {
			h.Write([]byte(d))
		}
		evals, renderHits, renderMisses = evals+res.Evals, renderHits+res.RenderHits, renderMisses+res.RenderMisses
	}

	points := len(lat) * gridPoints
	ms := in(lat, time.Millisecond)
	us := in(lat, time.Microsecond)
	setupNote := "one daemon's construction, bind and readiness; median"
	if fabric {
		setupNote = "2 workers' and a coordinator's construction, bind and readiness; median"
	}
	rep.add("setup_s", median(setups), len(setups), setupNote)
	rate := median(roundRate)
	rep.add("points_per_s", rate*gridPoints, len(lat), "grid points / client wait; median over rounds")
	rep.add("campaign_ms_p50", median(ms), len(ms), "")
	rep.add("campaign_ms_p90", quantile(ms, 0.9), len(ms), "")
	rep.add("requests_per_s", rate, len(lat), "campaigns / client wait; median over rounds")
	rep.add("request_us_p50", median(us), len(us), "the campaign requests")
	rep.add("request_us_p99", quantile(us, 0.99), len(us), "the campaign requests; under 10 samples beyond it")
	rep.add("heap_mb", median(heaps), len(heaps), fmt.Sprintf("live heap after GC at the end of each %d-campaign round; median", campaignsPerRound))
	rep.add("error_rate", float64(rep.failed)/float64(rep.attempted), rep.attempted, "failed or invalid / attempted (table only)")
	rep.input("round_p50_ms=%.1f", roundP50)
	rep.input("dedup_share=%.4f (1 - suite evaluations / grid points: %d evaluations for %d points)",
		1-float64(evals)/float64(points), evals, points)
	rep.input("render_hit_share=%.4f (%d hits, %d misses)",
		ratio(renderHits, renderHits+renderMisses), renderHits, renderMisses)
	rep.input("bodies_sha256=%x (over the %d body digests in order; equal for both campaign workloads at one seed)",
		h.Sum(nil), len(lat))
	return rep, nil
}

// runRound runs round r in a child process of this binary and reads
// its result from the child's last line of output.
func runRound(cfg config, r int) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-round", strconv.Itoa(r))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return roundResult{}, err
	}
	var res roundResult
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return roundResult{}, fmt.Errorf("reading the round's result: %w", err)
	}
	return res, nil
}

// campaignRound is one round, run in its own process: the filler specs
// that take the process past its cache caps, a campaign pass on fresh
// servers, and on the fabric a check of every body's digest against a
// fresh local daemon's body for the same spec. Round r sends its share
// of the run's campaigns, drawing the specs after the ones rounds
// 0..r-1 drew.
func campaignRound(cfg config, r int, w io.Writer) error {
	fabric := cfg.workload == "campaign-fabric"
	n := min(campaignsPerRound, campaignCount(cfg.seconds)-r*campaignsPerRound)
	if n < 1 {
		return fmt.Errorf("a %d-second run has no round %d", cfg.seconds, r)
	}
	if err := fillProcessCaches(cfg.seed); err != nil {
		return err
	}
	gen := newSpecGen(cfg.seed)
	for i := 0; i < r*(campaignsPerRound+1); i++ {
		gen.next()
	}
	c := newClient()
	defer c.close()
	rep := &report{}
	p, err := campaignPass(c, gen, fabric, n, rep)
	if err != nil {
		return err
	}
	if fabric {
		if err := checkAgainstLocal(c, p.ops); err != nil {
			rep.fail(err)
		}
	}
	res := roundResult{
		SetupS: p.setups, HeapMB: p.heapMB, Evals: p.evals,
		RenderHits: p.renderHits, RenderMisses: p.renderMisses,
		Attempted: rep.attempted, Failed: rep.failed, FirstFailure: rep.firstFailure,
	}
	for i, op := range p.ops {
		res.LatencyNS = append(res.LatencyNS, int64(p.lat[i]))
		res.Digests = append(res.Digests, fmt.Sprintf("%x", op.digest))
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// passResult is one campaign pass.
type passResult struct {
	setups                   []float64 // seconds
	lat                      []time.Duration
	ops                      []campaignOp
	evals                    uint64 // suite evaluations: engine cache misses
	renderHits, renderMisses uint64
	before, after            runtimeSample
	heapMB                   float64
}

// campaignPass sets a tier up (setupRepeats times, keeping the last),
// sends one warm-up campaign (the engines load their base
// configurations) and then n fresh campaigns, each body checked for
// its grid, and measures the live heap with the servers still up.
func campaignPass(c *client, gen *specGen, fabric bool, n int, rep *report) (passResult, error) {
	var p passResult
	t, setups, err := startRepeated(c, func() (*tier, error) { return startTier(c, fabric, wrappers{}) })
	if err != nil {
		return p, err
	}
	p.setups = setups
	defer func() { t.stop(); c.close() }()
	warm := gen.next()
	rep.attempted++
	if _, err := c.do("POST", t.front.url+campaignPath, warm); err != nil {
		rep.fail(err)
	}
	_, m0 := t.cacheStats()
	rh0, rm0, err := c.renderCounts(t.front.url)
	if err != nil {
		return p, err
	}
	p.before = sampleRuntime()
	for k := 0; k < n; k++ {
		spec := gen.next()
		rep.attempted++
		d, err := c.do("POST", t.front.url+campaignPath, spec)
		if err == nil {
			err = checkCampaignBody(c.buf.Bytes(), gridPoints)
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		p.lat = append(p.lat, d)
		p.ops = append(p.ops, campaignOp{spec: spec, digest: digestOf(c.buf.Bytes())})
	}
	p.after = sampleRuntime()
	_, m1 := t.cacheStats()
	rh1, rm1, err := c.renderCounts(t.front.url)
	if err != nil {
		return p, err
	}
	p.evals, p.renderHits, p.renderMisses = m1-m0, rh1-rh0, rm1-rm0
	c.buf = bytes.Buffer{} // the live heap is the servers', not the last body
	p.heapMB = liveHeapMB()
	return p, nil
}

// checkAgainstLocal sends each spec to a fresh local daemon and checks
// that the fabric's body digest equals the local body's: distributed
// output equals local output, byte for byte.
func checkAgainstLocal(c *client, ops []campaignOp) error {
	t, err := startLocal(c, wrappers{}, false)
	if err != nil {
		return err
	}
	defer func() { t.stop(); c.close() }()
	got := make([]digest, len(ops))
	want := make([]digest, len(ops))
	for i, op := range ops {
		if _, err := c.do("POST", t.front.url+campaignPath, op.spec); err != nil {
			return fmt.Errorf("local reference: %w", err)
		}
		got[i], want[i] = op.digest, digestOf(c.buf.Bytes())
	}
	return checkDigests(got, want)
}

// cacheStats sums the suite-cache counters of every engine that
// evaluates the tier's points: the daemon's own, or the workers'.
func (t *tier) cacheStats() (hits, misses uint64) {
	evals := []*daemon{t.front}
	if len(t.workers) > 0 {
		evals = t.workers
	}
	for _, d := range evals {
		h, m := d.srv.Engine().CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// renderCounts reads the render-cache counters from a daemon's /metrics.
func (c *client) renderCounts(url string) (hits, misses uint64, err error) {
	if _, err := c.do("GET", url+"/metrics", nil); err != nil {
		return 0, 0, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(c.buf.Bytes()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || (name != "sg2042d_render_cache_hits_total" && name != "sg2042d_render_cache_misses_total") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics: %s: %w", name, err)
		}
		found++
		if name == "sg2042d_render_cache_hits_total" {
			hits = v
		} else {
			misses = v
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks the render cache counters")
	}
	return hits, misses, nil
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
