package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
)

func TestSpecGenSameSeedSameSpecs(t *testing.T) {
	a, b, c := newSpecGen(7), newSpecGen(7), newSpecGen(8)
	differs := false
	for i := 0; i < 20; i++ {
		sa := a.next()
		sb := b.next()
		sc := c.next()
		if !bytes.Equal(sa, sb) {
			t.Fatalf("spec %d differs between two generators with seed 7:\n%s\n%s", i, sa, sb)
		}
		differs = differs || !bytes.Equal(sa, sc)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 drew the same 20 specs")
	}
}

// Every operation must derive machines no earlier operation derived, so
// that no process-wide cache hits across operations.
func TestSpecGenDistinctFingerprintsAcrossOperations(t *testing.T) {
	g := newSpecGen(1)
	owner := map[uint64]int{}
	for op := 0; op < 6; op++ {
		spec, err := repro.CampaignSpecFromJSON(g.next(), nil)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if n := spec.Points(); n != gridPoints {
			t.Fatalf("op %d: %d grid points, want %d", op, n, gridPoints)
		}
		fps, err := spec.Fingerprints()
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			if prev, ok := owner[fp]; ok && prev != op {
				t.Fatalf("op %d derives machine %016x that op %d derived", op, fp, prev)
			}
			owner[fp] = op
		}
	}
	// 2 bases x 2 vector widths x 2 NUMA counts x 8 clocks per spec.
	if want := 6 * 2 * 2 * 2 * gridClocks; len(owner) != want {
		t.Fatalf("%d distinct machines over 6 specs, want %d", len(owner), want)
	}
}

// ndjsonBody builds a well-formed campaign body of n points.
func ndjsonBody(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"point":%d,"base":"SG2042","total_seconds":1.5}`+"\n", i)
	}
	fmt.Fprintf(&b, `{"summary":{"title":"t","points":%d}}`+"\n", n)
	return b.Bytes()
}

func TestCheckCampaignBody(t *testing.T) {
	if err := checkCampaignBody(ndjsonBody(5), 5); err != nil {
		t.Fatalf("well-formed body: %v", err)
	}
	bad := map[string][]byte{
		"short":         ndjsonBody(4),
		"long":          ndjsonBody(6),
		"out of order":  bytes.Replace(ndjsonBody(5), []byte(`{"point":3,`), []byte(`{"point":4,`), 1),
		"no summary":    bytes.TrimSuffix(ndjsonBody(5), []byte(`{"summary":{"title":"t","points":5}}`+"\n")),
		"invalid JSON":  bytes.Replace(ndjsonBody(5), []byte(`1.5}`), []byte(`1.5`), 1),
		"no final \\n":  bytes.TrimSuffix(ndjsonBody(5), []byte("\n")),
		"terminal line": append(ndjsonBody(5), []byte(`{"error":"x"}`+"\n")...),
	}
	for name, body := range bad {
		if err := checkCampaignBody(body, 5); err == nil {
			t.Errorf("%s: body passed the check", name)
		}
	}
}

// A flipped byte that keeps the body well-formed must still fail the
// fabric-against-local digest check.
func TestFlippedByteFailsDigestCheck(t *testing.T) {
	local := ndjsonBody(5)
	fabric := bytes.Clone(local)
	if err := checkDigests([]digest{digestOf(fabric)}, []digest{digestOf(local)}); err != nil {
		t.Fatalf("equal bodies: %v", err)
	}
	i := bytes.Index(fabric, []byte("1.5"))
	fabric[i+2] = '6'
	if err := checkCampaignBody(fabric, 5); err != nil {
		t.Fatalf("the flipped body should stay well-formed: %v", err)
	}
	if err := checkDigests([]digest{digestOf(fabric)}, []digest{digestOf(local)}); err == nil {
		t.Fatal("a body with a flipped byte passed the digest check")
	}
}

func TestFrameCounterAcrossWriteBoundaries(t *testing.T) {
	var stream []byte
	sizes := []int{0, 1, 127, 128, 300, 5}
	for _, n := range sizes {
		stream = binary.AppendUvarint(stream, uint64(n))
		stream = append(stream, bytes.Repeat([]byte{0x80}, n)...)
	}
	for _, chunk := range []int{1, 2, 3, 7, 64, len(stream)} {
		var fc frameCounter
		var got int64
		for i := 0; i < len(stream); i += chunk {
			got += fc.feed(stream[i:min(i+chunk, len(stream))])
		}
		if got != int64(len(sizes)) {
			t.Errorf("chunk %d: counted %d frames, want %d", chunk, got, len(sizes))
		}
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloads)
	}
	check := func(level string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: perfbench has %d metrics, BENCHMARK.json %d", level, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: perfbench %s (%s), BENCHMARK.json %s (%s)",
					level, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// runResult runs the benchmark in process and decodes its last line.
func runResult(t *testing.T, args ...string) resultJSON {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-spans", t.TempDir()), &out, &errOut); code != 0 {
		t.Fatalf("perfbench %s: exit %d\n%s%s", strings.Join(args, " "), code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	return res
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-hot workload")
	}
	bf := readBenchmarkFile(t)
	for _, trace := range []string{"0", "1"} {
		var want []string
		if trace == "0" {
			for _, m := range bf.EndToEnd {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range bf.PerLayer {
				want = append(want, m.Name)
			}
		}
		res := runResult(t, "-workload", "serve-hot", "-seed", "3", "-seconds", "1", "-trace", trace)
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: printed %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %s: %s not printed", trace, name)
			}
		}
	}
}

// The filler specs must derive no machine a timed spec derives, or the
// derivation memo would hold some of the timed campaigns' work.
func TestFillerSpecsShareNoMachineWithTimedSpecs(t *testing.T) {
	timed := map[uint64]bool{}
	g := newSpecGen(1)
	for op := 0; op < 40; op++ {
		for _, fp := range fingerprints(t, g.next()) {
			timed[fp] = true
		}
	}
	f := newFillerGen(1)
	for op := 0; op < pastCapSpecs; op++ {
		for _, fp := range fingerprints(t, f.next()) {
			if timed[fp] {
				t.Fatalf("filler spec %d derives machine %016x, which a timed spec derives", op, fp)
			}
		}
	}
}

func fingerprints(t *testing.T, body []byte) []uint64 {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	fps, err := spec.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

// Past the caps, the plan of a spec the process has not seen is not
// kept: each call that needs it builds it again, deriving its machines.
func TestFillerTakesProcessPastCacheCaps(t *testing.T) {
	if err := fillProcessCaches(2); err != nil {
		t.Fatal(err)
	}
	spec, err := repro.CampaignSpecFromJSON(newSpecGen(2).next(), nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	// One derived machine per clock x vector x NUMA combination.
	if combos := 2 * 2 * 2 * gridClocks; allocs < float64(combos) {
		t.Fatalf("Validate made %.0f allocations after the fillers; a rebuilt plan makes at least %d", allocs, combos)
	}
}

// One fabric round in process: every body checked for its grid and
// against a local daemon's body for the same spec.
func TestFabricRoundMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cold campaigns")
	}
	var out bytes.Buffer
	if err := campaignRound(config{workload: "campaign-fabric", seed: 5, seconds: 1}, 0, &out); err != nil {
		t.Fatal(err)
	}
	var res roundResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	n := campaignCount(1)
	if res.Failed != 0 || res.Attempted != n+1 || len(res.LatencyNS) != n || len(res.Digests) != n || len(res.SetupS) != setupRepeats {
		t.Fatalf("round result %+v", res)
	}
	if want := uint64(n * gridPoints * 3 / 4); res.Evals != want {
		t.Errorf("%d suite evaluations for %d campaigns, want %d (a quarter of the points share evaluations)", res.Evals, n, want)
	}
}
