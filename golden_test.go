package repro_test

// The golden corpus: committed bytes for every output surface the
// determinism contract covers, so a refactor of the caches, the
// planner or the renderers is checked against fixed files instead of
// against a manual byte-diff. Every golden is produced twice — by a
// fresh engine and again by the same engine warm — so cached ==
// uncached is pinned too. Regenerate after a deliberate output change
// with
//
//	go test -run TestGolden -update .

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// updated records the goldens -update has rewritten in this run: each
// is written from its first producer, and every later producer of the
// same golden is compared against that.
var updated = map[string]bool{}

// checkGolden compares got with testdata/golden/name. Under -update the
// first call for a name rewrites the file first.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update && !updated[name] {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		updated[name] = true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGolden -update . to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes differ from the %d-byte golden (first difference at byte %d)",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// coldAndWarm runs produce on a fresh engine and then again on the same
// engine, checking both results against one golden.
func coldAndWarm(t *testing.T, name string, produce func(*repro.Engine) ([]byte, error)) {
	t.Helper()
	eng := repro.NewEngine(repro.Options{})
	for _, pass := range []string{"cold", "warm"} {
		got, err := produce(eng)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, pass, err)
		}
		checkGolden(t, name, got)
	}
}

func TestGoldenExperiments(t *testing.T) {
	coldAndWarm(t, "exp-all.txt", func(e *repro.Engine) ([]byte, error) {
		out, err := e.Run("all")
		return []byte(out), err
	})
	coldAndWarm(t, "exp-all.bin", func(e *repro.Engine) ([]byte, error) {
		return e.RunBinary("all")
	})
}

// TestGoldenSnapshot pins the suite-cache snapshot taken after -exp
// all: its bytes are a pure function of cache content, so they change
// exactly when the set of memoized configurations or their
// measurements do. A restore into a fresh engine must snapshot back to
// the same bytes.
func TestGoldenSnapshot(t *testing.T) {
	coldAndWarm(t, "snapshot-exp-all.bin", func(e *repro.Engine) ([]byte, error) {
		if _, err := e.Run("all"); err != nil {
			return nil, err
		}
		return e.SnapshotCache()
	})
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "snapshot-exp-all.bin"))
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.Options{})
	if _, err := eng.RestoreCache(want); err != nil {
		t.Fatal(err)
	}
	got, err := eng.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot-exp-all.bin", got)
}

var goldenCampaigns = []struct{ name, path string }{
	{"campaign-spec", "examples/campaign/spec.json"},
	{"campaign-scaling", "examples/scaling/campaign.json"},
}

func TestGoldenCampaigns(t *testing.T) {
	reg := repro.DefaultMachineRegistry()
	for _, c := range goldenCampaigns {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := repro.CampaignSpecFromJSON(raw, reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, csv := range []bool{false, true} {
			ext := ".txt"
			if csv {
				ext = ".csv"
			}
			coldAndWarm(t, c.name+ext, func(e *repro.Engine) ([]byte, error) {
				out, err := e.CampaignFormat(spec, csv)
				return []byte(out), err
			})
		}

		// NDJSON is the daemon's streaming rendering. One server answers
		// it cold, then text with a warm suite cache but a cold render
		// cache, then NDJSON again from the render cache.
		srv := serve.New(serve.Options{})
		for _, format := range []string{"ndjson", "text", "ndjson"} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/campaign?format="+format, bytes.NewReader(raw))
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c.name, format, rec.Code, rec.Body)
			}
			ext := ".ndjson"
			if format == "text" {
				ext = ".txt"
			}
			checkGolden(t, c.name+ext, rec.Body.Bytes())
		}
	}
}

// One what-if sweep per axis, on the CLI's defaults (SG2042 base, full
// occupancy, FP64).
var goldenSweeps = []struct {
	axis   repro.SweepAxis
	values []float64
}{
	{repro.SweepCores, []float64{16, 32, 64}},
	{repro.SweepClock, []float64{1.5, 2, 2.5}},
	{repro.SweepVector, []float64{128, 256, 512}},
	{repro.SweepNUMA, []float64{1, 2, 4}},
	{repro.SweepSockets, []float64{1, 2}},
	{repro.SweepNodes, []float64{1, 2, 4}},
}

func TestGoldenSweeps(t *testing.T) {
	base, ok := repro.DefaultMachineRegistry().Get("SG2042")
	if !ok {
		t.Fatal("SG2042 missing from the default registry")
	}
	for _, s := range goldenSweeps {
		spec := repro.SweepSpec{Base: base, Axis: s.axis, Values: s.values, Prec: repro.F64}
		coldAndWarm(t, "sweep-"+string(s.axis)+".txt", func(e *repro.Engine) ([]byte, error) {
			out, err := e.SweepFormat(spec, false)
			return []byte(out), err
		})
	}
}
