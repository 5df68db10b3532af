package fabric_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/fabric/faulttest"
)

var specJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [128, 256]}],
	"threads": [0, 8],
	"precisions": ["f32", "f64"]
}`)

// singleProcess evaluates the reference result the sharded runs must
// reproduce byte-for-byte.
func singleProcess(t *testing.T) repro.CampaignResult {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(specJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runSharded runs the campaign through a coordinator over the cluster,
// asserting exactly-once in-grid-order emission, and returns the
// assembled result.
func runSharded(t *testing.T, cluster *faulttest.Cluster) repro.CampaignResult {
	t.Helper()
	coord, err := fabric.NewCoordinator(cluster.Targets(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 10 * time.Second
	var emitted []int
	res, err := coord.Run(context.Background(), specJSON, func(p repro.CampaignPoint) error {
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

// assertIdentical holds the distributed determinism contract: the
// sharded result must render to the same bytes as the single-process
// one in every format.
func assertIdentical(t *testing.T, want, got repro.CampaignResult) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sharded campaign result differs from single-process result")
	}
	if repro.FormatCampaignResult(got, false) != repro.FormatCampaignResult(want, false) {
		t.Fatal("text rendering differs")
	}
	if repro.FormatCampaignResult(got, true) != repro.FormatCampaignResult(want, true) {
		t.Fatal("CSV rendering differs")
	}
	wantBin, err := repro.CampaignResultWire(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBin, err := repro.CampaignResultWire(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBin, gotBin) {
		t.Fatal("binary rendering differs")
	}
}

func TestShardedCampaignMatchesSingleProcess(t *testing.T) {
	want := singleProcess(t)
	for _, workers := range []int{1, 2, 3, 5} {
		cluster := faulttest.NewCluster(workers)
		got := runSharded(t, cluster)
		cluster.Close()
		assertIdentical(t, want, got)
	}
}

// TestWorkerKilledMidGrid arms a kill switch at a seeded-random frame
// of a seeded-random victim, over several rounds: the campaign must
// complete on the survivors with byte-identical output every time.
func TestWorkerKilledMidGrid(t *testing.T) {
	want := singleProcess(t)
	rng := rand.New(rand.NewSource(faultSeed(t, 42))) // fixed seed: failures reproduce
	for round := 0; round < 4; round++ {
		victim := rng.Intn(3)
		frame := 1 + rng.Intn(5)
		t.Logf("round %d: killing worker %d at frame %d", round, victim, frame)
		cluster := faulttest.NewCluster(3)
		cluster.Arm(victim, frame)
		got := runSharded(t, cluster)
		cluster.Close()
		assertIdentical(t, want, got)
	}
}

// TestWorkerDownFromTheStart: a worker that is already unreachable
// (connection refused) just loses its shard to the survivors.
func TestWorkerDownFromTheStart(t *testing.T) {
	want := singleProcess(t)
	cluster := faulttest.NewCluster(3)
	defer cluster.Close()
	cluster.Kill(1)
	got := runSharded(t, cluster)
	assertIdentical(t, want, got)
}

// TestCorruptStreamRedispatched: a wire-decode failure mid-stream
// re-dispatches the worker's outstanding points — never drops them.
func TestCorruptStreamRedispatched(t *testing.T) {
	want := singleProcess(t)
	rng := rand.New(rand.NewSource(faultSeed(t, 7)))
	for round := 0; round < 3; round++ {
		victim := rng.Intn(3)
		frame := 1 + rng.Intn(4)
		t.Logf("round %d: corrupting worker %d at frame %d", round, victim, frame)
		cluster := faulttest.NewCluster(3)
		cluster.Corrupt(victim, frame)
		got := runSharded(t, cluster)
		cluster.Close()
		assertIdentical(t, want, got)
	}
}

// TestAllWorkersDown: with every worker dead the coordinator fails
// with the typed error, carrying each worker's failure.
func TestAllWorkersDown(t *testing.T) {
	cluster := faulttest.NewCluster(2)
	targets := cluster.Targets()
	cluster.Close()

	coord, err := fabric.NewCoordinator(targets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), specJSON, nil)
	var down *fabric.AllWorkersDownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want *AllWorkersDownError", err)
	}
	if len(down.Failures) == 0 {
		t.Fatal("AllWorkersDownError carries no per-worker failures")
	}
}

// TestWarmRestartCacheHit: a worker restored from a snapshot answers
// every point of its shard from cache — zero suite evaluations.
func TestWarmRestartCacheHit(t *testing.T) {
	// A previous life of the fleet: one engine that has seen the whole
	// campaign, snapshotted at shutdown.
	warm := repro.NewEngine(repro.Options{})
	spec, err := repro.CampaignSpecFromJSON(specJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := warm.Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := warm.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}

	cluster := faulttest.NewCluster(3)
	defer cluster.Close()
	for i := 0; i < cluster.Len(); i++ {
		if n, err := cluster.Node(i).Engine.RestoreCache(snap); err != nil || n == 0 {
			t.Fatalf("worker %d restore = (%d, %v)", i, n, err)
		}
	}
	got := runSharded(t, cluster)
	assertIdentical(t, want, got)
	served := 0
	for i := 0; i < cluster.Len(); i++ {
		hits, misses := cluster.Node(i).Engine.CacheStats()
		if misses != 0 {
			t.Errorf("restored worker %d evaluated %d suites, want pure cache hits", i, misses)
		}
		served += int(hits)
	}
	if served == 0 {
		t.Fatal("no worker served any cache hit")
	}
}

// TestColdVsWarmIdentical: restoring a snapshot must not change a
// single byte of the result — warm is purely faster, never different.
func TestColdVsWarmIdentical(t *testing.T) {
	want := singleProcess(t)

	warm := repro.NewEngine(repro.Options{})
	spec, err := repro.CampaignSpecFromJSON(specJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Campaign(spec); err != nil {
		t.Fatal(err)
	}
	snap, err := warm.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}

	cluster := faulttest.NewCluster(2)
	defer cluster.Close()
	// Restore only worker 0: a mixed fleet, half warm, half cold.
	if _, err := cluster.Node(0).Engine.RestoreCache(snap); err != nil {
		t.Fatal(err)
	}
	got := runSharded(t, cluster)
	assertIdentical(t, want, got)
}
