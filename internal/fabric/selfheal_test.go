package fabric_test

// Self-healing and integrity tests: real workers on httptest servers, a
// real coordinator with a real health prober — killed and restarted
// mid-fleet — plus faulttest's Tamper and Corrupt standing in for bytes
// damaged between worker and coordinator.

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/fabric/faulttest"
)

// wideSpecJSON spreads the grid over 64 distinct machine fingerprints
// (2 machines x 32 vector widths). The ring layout depends on the
// workers' ephemeral ports, so a worker's share of the key space varies
// run to run; with 64 distinct shard keys every worker of a 3-node
// fleet owns some of the grid with overwhelming probability — the
// narrower specJSON has only 4 distinct shard keys, too few to
// guarantee a chosen victim (or a rejoining worker) any work.
var wideSpecJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [
		40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128,
		136, 144, 152, 160, 168, 176, 184, 192, 200, 208, 216, 224,
		232, 240, 248, 256, 320, 384, 448, 512]}],
	"threads": [0],
	"precisions": ["f64"]
}`)

// faultSeed returns the seed for a seeded fault schedule, overridable
// via FABRIC_FAULT_SEED so the chaos CI job can sweep several schedules
// over the same binaries (make determinism-chaos). A value that does
// not parse fails the test rather than silently rerunning the default.
func faultSeed(t *testing.T, def int64) int64 {
	t.Helper()
	s := os.Getenv("FABRIC_FAULT_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("FABRIC_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// evalDirect is singleProcess for an arbitrary spec.
func evalDirect(t *testing.T, raw []byte) repro.CampaignResult {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCoord runs one campaign through an already-configured coordinator,
// asserting exactly-once in-grid-order emission.
func runCoord(t *testing.T, coord *fabric.Coordinator, raw []byte) repro.CampaignResult {
	t.Helper()
	var emitted []int
	res, err := coord.Run(context.Background(), raw, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(res.Points) {
		t.Fatalf("emitted %d points for a %d-point grid", len(emitted), len(res.Points))
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission order %v is not grid order", emitted)
		}
	}
	return res
}

func newCoord(t *testing.T, cluster *faulttest.Cluster) *fabric.Coordinator {
	t.Helper()
	coord, err := fabric.NewCoordinator(cluster.Targets(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 10 * time.Second
	return coord
}

// firstReadTransport calls fn once, on the first read of the first
// points-stream response body, before that read returns any bytes.
type firstReadTransport struct {
	once sync.Once
	fn   func()
}

func (t *firstReadTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == fabric.PointsPath {
		resp.Body = &hookedBody{ReadCloser: resp.Body, once: &t.once, fn: t.fn}
	}
	return resp, err
}

type hookedBody struct {
	io.ReadCloser
	once *sync.Once
	fn   func()
}

func (b *hookedBody) Read(p []byte) (int, error) {
	b.once.Do(b.fn)
	return b.ReadCloser.Read(p)
}

// waitForStats polls the coordinator's fabric stats until cond holds.
func waitForStats(t *testing.T, coord *fabric.Coordinator, what string, cond func(fabric.FabricStats) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond(coord.Stats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %+v", what, coord.Stats())
}

// TestWorkerRestartRejoins is the self-healing acceptance path: a
// three-worker fleet under a live prober loses a worker, keeps serving
// byte-identical campaigns on the survivors, then the worker restarts
// on its old address — cold — and the prober revives it and routes to
// it again. No coordinator restart anywhere.
func TestWorkerRestartRejoins(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	cluster := faulttest.NewCluster(3)
	defer cluster.Close()
	coord := newCoord(t, cluster)
	coord.StartProber(context.Background(), fabric.ProbeConfig{
		Interval: 20 * time.Millisecond,
		Timeout:  2 * time.Second,
		Backoff:  100 * time.Millisecond,
	})
	defer coord.StopProber()

	// Phase 1: full fleet. The victim is the worker that served the
	// most points: the ring's share of the key space depends on the
	// workers' ephemeral ports and can leave one worker no point.
	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))
	victim := 0
	for i := 1; i < cluster.Len(); i++ {
		if cluster.Frames(i) > cluster.Frames(victim) {
			victim = i
		}
	}

	// Phase 2: the victim dies. The prober notices; the survivors absorb
	// its arcs.
	cluster.Kill(victim)
	waitForStats(t, coord, "probe death", func(s fabric.FabricStats) bool {
		return s.ProbeDeaths >= 1
	})
	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))

	// Phase 3: the worker restarts on the same address with a cold
	// engine (a bounced process keeps nothing). The prober revives it.
	if err := cluster.Restart(victim); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, coord, "revival", func(s fabric.FabricStats) bool {
		return s.ProbeRevivals >= 1
	})

	// The rejoined worker took its arcs back cold: it evaluated its
	// shard itself, and the campaign still answers the single-process
	// bytes.
	assertIdentical(t, want, runCoord(t, coord, wideSpecJSON))
	if hits, misses := cluster.Node(victim).Engine.CacheStats(); hits+misses == 0 {
		t.Error("rejoined worker served nothing after revival")
	}
	for _, ms := range coord.Membership().Status() {
		if !ms.Live {
			t.Errorf("worker %s still dead after the fleet healed: %+v", ms.Target, ms)
		}
	}
}

// TestWorkerRejoinsMidCampaign: a worker that is dead when the campaign
// starts is revived while the campaign runs (the prober edge, driven
// here deterministically through the membership) and must take work
// back within the same run — the epoch forgiveness path.
func TestWorkerRejoinsMidCampaign(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	cluster := faulttest.NewCluster(2)
	defer cluster.Close()
	w0 := cluster.Targets()[0]

	// Worker 0 is dead at dispatch time, so worker 1 is assigned the
	// whole grid — and is armed to die partway through it.
	var mem *fabric.Membership
	revive := &firstReadTransport{fn: func() {
		// The coordinator is reading worker 1's stream, so it cannot
		// have seen worker 1 die yet. Revive worker 0 exactly as the
		// prober would; when worker 1 dies, the re-assignment must
		// route its outstanding points here.
		if !mem.MarkLive(w0) {
			t.Error("MarkLive(w0) mid-campaign reported no transition")
		}
	}}
	coord, err := fabric.NewCoordinator(cluster.Targets(), nil, &http.Client{Transport: revive})
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 10 * time.Second
	mem = coord.Membership()
	mem.MarkDead(w0, "health probe: connection refused")
	cluster.Arm(1, 5)

	var emitted []int
	res, err := coord.Run(context.Background(), wideSpecJSON, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("campaign failed despite a revived worker: %v", err)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission order %v is not grid order", emitted)
		}
	}
	assertIdentical(t, want, res)
	// The revived worker must actually have served the failover work.
	if hits, misses := cluster.Node(0).Engine.CacheStats(); hits+misses == 0 {
		t.Fatal("revived worker evaluated nothing — rejoin never routed to it")
	}
}

// TestTamperedWorkerExcluded: a worker whose frame is damaged on the
// way out — a body bit flipped so the frame still decodes, or a
// garbled length prefix — fails its stream on the frame checksum or
// the decoder. The worker is excluded for the run and its points are
// re-dispatched, so the campaign answers the single-process bytes.
func TestTamperedWorkerExcluded(t *testing.T) {
	want := evalDirect(t, wideSpecJSON)
	for _, mode := range []struct {
		name string
		arm  func(c *faulttest.Cluster, i, frames int)
	}{
		{"tamper", (*faulttest.Cluster).Tamper},
		{"corrupt", (*faulttest.Cluster).Corrupt},
	} {
		cluster := faulttest.NewCluster(2)
		mode.arm(cluster, 0, 1)
		got := runCoord(t, newCoord(t, cluster), wideSpecJSON)
		cluster.Close()
		assertIdentical(t, want, got)
		if cluster.Frames(0) == 0 {
			t.Fatalf("%s: worker 0 owned no points; the fault never fired", mode.name)
		}
		// Worker 0's first frame was damaged, so none of its points
		// count: the survivor must have served the whole grid, and the
		// re-dispatch must never have gone back to worker 0.
		if n := cluster.Frames(1); n != len(want.Points) {
			t.Fatalf("%s: survivor served %d frames, want all %d points", mode.name, n, len(want.Points))
		}
	}

	rng := rand.New(rand.NewSource(faultSeed(t, 42)))
	for round := 0; round < 3; round++ {
		victim := rng.Intn(3)
		frame := 1 + rng.Intn(4)
		t.Logf("round %d: tampering worker %d at frame %d", round, victim, frame)
		cluster := faulttest.NewCluster(3)
		cluster.Tamper(victim, frame)
		got := runCoord(t, newCoord(t, cluster), wideSpecJSON)
		cluster.Close()
		assertIdentical(t, want, got)
	}

	// A sole tampering worker has nobody to hand its points to: the run
	// fails, naming the checksum, rather than answer a wrong point.
	cluster := faulttest.NewCluster(1)
	defer cluster.Close()
	cluster.Tamper(0, 1)
	_, err := newCoord(t, cluster).Run(context.Background(), wideSpecJSON, nil)
	var down *fabric.AllWorkersDownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want *AllWorkersDownError", err)
	}
	if reason := down.Failures[cluster.Targets()[0]]; !strings.Contains(reason, "checksum") {
		t.Fatalf("failure %q does not name the checksum", reason)
	}
}

// TestRingSharesLoopbackFleetsFairly: over many random 3-worker
// loopback fleets, every worker owns a fair share of the key space and
// at least one point of the wideSpecJSON grid. A vnode position hashed
// without mixing clustered each worker's vnodes, and one such fleet
// left a worker 0.85% of the key space and no point of the grid.
func TestRingSharesLoopbackFleetsFairly(t *testing.T) {
	spec, err := repro.CampaignSpecFromJSON(wideSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	fps, err := spec.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	const (
		fleets  = 500
		samples = 1 << 12 // evenly spaced keys measure each share
		minFair = 0.15
	)
	pick := rand.New(rand.NewSource(20260901))
	for f := 0; f < fleets; f++ {
		var targets []string
		for len(targets) < 3 {
			tg := "http://127.0.0.1:" + strconv.Itoa(1024+pick.Intn(65536-1024))
			if !slices.Contains(targets, tg) {
				targets = append(targets, tg)
			}
		}
		ring, err := fabric.NewRing(targets)
		if err != nil {
			t.Fatal(err)
		}
		share := map[string]int{}
		for i := uint64(0); i < samples; i++ {
			owner, err := ring.Owner(i*(1<<64/samples), nil)
			if err != nil {
				t.Fatal(err)
			}
			share[owner]++
		}
		points := map[string]int{}
		for _, fp := range fps {
			owner, err := ring.Owner(fp, nil)
			if err != nil {
				t.Fatal(err)
			}
			points[owner]++
		}
		for _, tg := range targets {
			if s := float64(share[tg]) / samples; s < minFair || points[tg] == 0 {
				t.Fatalf("fleet %v: %s owns %.2f%% of the key space (want >= %.0f%%) and %d of %d grid points",
					targets, tg, 100*s, 100*minFair, points[tg], len(fps))
			}
		}
	}
}
