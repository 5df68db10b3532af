package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/suite"
)

// fakeWorker answers the points endpoint by replaying pre-evaluated
// points through a script — the tool for protocol-abuse tests a real
// worker would never fail.
func fakeWorker(t *testing.T, points []repro.CampaignPoint, script func(req pointsRequest, send func(repro.CampaignPoint))) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req pointsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake worker: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		flusher, _ := w.(http.Flusher)
		script(req, func(p repro.CampaignPoint) {
			body, err := encodeFrame(p)
			if err != nil {
				t.Errorf("fake worker: %v", err)
				return
			}
			if err := writeFrame(w, body); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		})
	}))
}

// TestDuplicateAndUnownedFramesDiscarded: a worker that repeats points
// and volunteers points it was never assigned must not break
// exactly-once emission or the assembled result.
func TestDuplicateAndUnownedFramesDiscarded(t *testing.T) {
	spec := testSpec(t)
	points := evalPoints(t, spec)

	srv := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
			send(points[i]) // duplicate of an owed point: must be discarded
		}
		// A point nobody asked this request for: must be discarded too.
		for i := range points {
			owned := false
			for _, j := range req.Points {
				if i == j {
					owned = true
				}
			}
			if !owned {
				send(points[i])
				break
			}
		}
	})
	defer srv.Close()

	coord, err := NewCoordinator([]string{srv.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []int
	res, err := coord.Run(context.Background(), testSpecJSON, func(p repro.CampaignPoint) error {
		emitted = append(emitted, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission %v is not exactly-once grid order", emitted)
		}
	}
	if len(emitted) != len(points) {
		t.Fatalf("emitted %d points, want %d", len(emitted), len(points))
	}
	if !reflect.DeepEqual(res.Points, points) {
		t.Fatal("assembled points differ from reference")
	}
}

// TestStalledWorkerTimesOut: a worker that stops producing frames
// trips the per-point watchdog and loses its shard to a survivor.
func TestStalledWorkerTimesOut(t *testing.T) {
	spec := testSpec(t)
	points := evalPoints(t, spec)

	stall := make(chan struct{})
	stalled := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		send(points[req.Points[0]])
		<-stall // one point, then silence
	})
	defer stalled.Close()
	defer close(stall) // unblock the handler before Close waits on it
	healthy := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
		}
	})
	defer healthy.Close()

	coord, err := NewCoordinator([]string{stalled.URL, healthy.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.PointTimeout = 200 * time.Millisecond
	start := time.Now()
	res, err := coord.Run(context.Background(), testSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(points) {
		t.Fatalf("assembled %d points, want %d", len(res.Points), len(points))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// TestEmitErrorAborts: an emit failure cancels the run and surfaces
// as-is.
func TestEmitErrorAborts(t *testing.T) {
	points := evalPoints(t, testSpec(t))
	srv := fakeWorker(t, points, func(req pointsRequest, send func(repro.CampaignPoint)) {
		for _, i := range req.Points {
			send(points[i])
		}
	})
	defer srv.Close()
	coord, err := NewCoordinator([]string{srv.URL}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errTestAbort("stream consumer gone")
	_, err = coord.Run(context.Background(), testSpecJSON, func(p repro.CampaignPoint) error {
		if p.Index == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

type errTestAbort string

func (e errTestAbort) Error() string { return string(e) }

// TestCoordinatorRejectsBadSpec: spec errors surface before any worker
// is contacted.
func TestCoordinatorRejectsBadSpec(t *testing.T) {
	coord, err := NewCoordinator([]string{"http://unreachable.invalid"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), []byte(`{"machines": ["NoSuch"]}`), nil); err == nil {
		t.Fatal("unknown machine accepted")
	} else if _, ok := err.(*repro.UnknownMachineError); !ok {
		t.Fatalf("err = %T, want *repro.UnknownMachineError", err)
	}
	if _, err := coord.Run(context.Background(), []byte(`{nope`), nil); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestModelMismatchWorkerExcluded: a worker built with a different
// model answers 409 to points requests and to health probes carrying
// the coordinator's fingerprint. It serves no point, the campaign
// completes byte-identically on the rest of the fleet, and the prober
// keeps the worker dead with the mismatch as its reason.
func TestModelMismatchWorkerExcluded(t *testing.T) {
	spec := testSpec(t)
	want, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	var engines []*repro.Engine
	for i := 0; i < 2; i++ {
		eng := repro.NewEngine(repro.Options{})
		wk := NewWorker(eng, nil)
		if i == 0 {
			wk.model = "other-model"
		}
		mux := http.NewServeMux()
		mux.Handle(PointsPath, wk)
		mux.HandleFunc(HealthPath, wk.ServeHealth)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		targets = append(targets, srv.URL)
		engines = append(engines, eng)
	}
	odd := targets[0]

	// A plain health GET, without a fingerprint, still answers 200.
	resp, err := http.Get(odd + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health without a fingerprint = %s, want 200", resp.Status)
	}

	// Alone, the odd worker fails the campaign with its refusal.
	solo, err := NewCoordinator([]string{odd}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = solo.Run(context.Background(), testSpecJSON, nil)
	var down *AllWorkersDownError
	if !errors.As(err, &down) || !strings.Contains(down.Failures[odd], "409") {
		t.Fatalf("sole mismatched worker: err = %v, want a 409 failure", err)
	}

	coord, err := NewCoordinator(targets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background(), testSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) ||
		repro.FormatCampaignResult(got, false) != repro.FormatCampaignResult(want, false) {
		t.Fatal("campaign result differs from the single-process result")
	}
	if hits, misses := engines[0].CacheStats(); hits+misses != 0 {
		t.Fatalf("mismatched worker evaluated %d suites", hits+misses)
	}

	coord.StartProber(context.Background(), fastProbe)
	defer coord.StopProber()
	waitFor(t, "prober to report the mismatched worker dead", func() bool {
		return coord.Membership().DeadSet()[odd]
	})
	if reason := coord.Membership().Reason(odd); !strings.Contains(reason, "model fingerprint mismatch") {
		t.Fatalf("dead reason %q does not name the mismatch", reason)
	}
	time.Sleep(5 * fastProbe.Interval)
	if !coord.Membership().DeadSet()[odd] {
		t.Fatal("prober revived the mismatched worker")
	}
	if coord.Membership().DeadSet()[targets[1]] {
		t.Fatal("prober killed the matching worker")
	}
}

// TestFingerprintModelCoversSuiteAndRecord: the fingerprint is a pure
// function of the presets, the calibration, the kernel suite and the
// record version. It ignores preset order, and it changes when any
// one kernel spec field or the record version changes.
func TestFingerprintModelCoversSuiteAndRecord(t *testing.T) {
	machines := repro.DefaultMachineRegistry().Machines()
	cal := perfmodel.DefaultCalibration()
	specs := suite.All()
	base := fingerprintModel(machines, cal, specs, pointRecordVersion)
	if base != modelFingerprint() {
		t.Fatalf("helper %s differs from the process fingerprint %s", base, modelFingerprint())
	}
	reversed := slices.Clone(machines)
	slices.Reverse(reversed)
	if got := fingerprintModel(reversed, cal, specs, pointRecordVersion); got != base {
		t.Fatalf("fingerprint depends on preset order: %s vs %s", got, base)
	}
	if got := fingerprintModel(machines, cal, specs, pointRecordVersion+1); got == base {
		t.Fatal("record version change kept the fingerprint")
	}

	for name, mutate := range map[string]func(*kernels.Spec){
		"Name":          func(k *kernels.Spec) { k.Name += "x" },
		"Class":         func(k *kernels.Spec) { k.Class++ },
		"DefaultN":      func(k *kernels.Spec) { k.DefaultN++ },
		"Reps":          func(k *kernels.Spec) { k.Reps++ },
		"Regions":       func(k *kernels.Spec) { k.Regions++ },
		"SeqOnly":       func(k *kernels.Spec) { k.SeqOnly = !k.SeqOnly },
		"SerialFrac":    func(k *kernels.Spec) { k.SerialFrac += 0.01 },
		"Loop.Flops":    func(k *kernels.Spec) { k.Loop.FlopsPerIter++ },
		"Loop.Accesses": func(k *kernels.Spec) { k.Loop.Accesses[0].PerIter++ },
		"Iters":         func(k *kernels.Spec) { f := k.Iters; k.Iters = func(n int) float64 { return f(n) + 1 } },
		"FootprintElems": func(k *kernels.Spec) {
			f := k.FootprintElems
			k.FootprintElems = func(n int) float64 { return 2 * f(n) }
		},
	} {
		mutated := slices.Clone(specs)
		k := &mutated[len(mutated)/2]
		k.Loop.Accesses = slices.Clone(k.Loop.Accesses)
		mutate(k)
		if got := fingerprintModel(machines, cal, mutated, pointRecordVersion); got == base {
			t.Errorf("changing kernel %s's %s kept the fingerprint", specs[len(specs)/2].Name, name)
		}
	}
	if got := fingerprintModel(machines, cal, specs, pointRecordVersion); got != base {
		t.Fatal("mutating copies changed the shared suite")
	}
}
