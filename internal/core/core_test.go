package core

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/suite"
)

func exactStudy() *Study {
	st := NewStudy()
	st.Noise = 0 // exact model outputs for deterministic assertions
	st.Runs = 1
	return st
}

func TestRunSuiteCoversAllKernels(t *testing.T) {
	st := exactStudy()
	secs, err := st.RunSuite(sgConfig(1, placement.Block, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 64 || len(secs) != len(suite.All()) {
		t.Fatalf("got %d times, want 64 in suite order", len(secs))
	}
	for i, s := range secs {
		if s <= 0 {
			t.Errorf("%s: non-positive time", suite.All()[i].Name)
		}
	}
}

func TestNoiseAveragingReproducible(t *testing.T) {
	st := NewStudy() // default noisy study
	a, err := st.RunSuite(sgConfig(1, placement.Block, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.RunSuite(sgConfig(1, placement.Block, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: noisy measurements not reproducible", suite.All()[i].Name)
		}
	}
	// Noise must stay small relative to the signal after averaging.
	ex := exactStudy()
	c, _ := ex.RunSuite(sgConfig(1, placement.Block, prec.F32))
	for i := range a {
		rel := math.Abs(a[i]-c[i]) / c[i]
		if rel > 0.05 {
			t.Errorf("%s: averaged noise %.3f too large", suite.All()[i].Name, rel)
		}
	}
}

func TestFigure1HeadlineNumbers(t *testing.T) {
	// "At double precision the C920 core delivers on average between
	// 4.3 and 6.5 times the performance ... at single precision ...
	// between 5.6 and 11.8 times" (class averages vs V2 FP64). The
	// model should land class averages in a generous band around those
	// and keep the ordering FP32 > FP64.
	st := exactStudy()
	fig, err := st.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	bySeries := make(map[string]Series)
	for _, s := range fig.Series {
		bySeries[s.Label] = s
	}
	sg64, ok := bySeries["SG2042 FP64"]
	if !ok {
		t.Fatal("missing SG2042 FP64 series")
	}
	sg32 := bySeries["SG2042 FP32"]
	for _, c := range kernels.Classes {
		m64 := sg64.ByClass[c].Mean
		m32 := sg32.ByClass[c].Mean
		if m64 < 2 || m64 > 14 {
			t.Errorf("class %v: SG2042 FP64 ratio %.2f outside plausible band [2,14]", c, m64)
		}
		if m32 < 3 || m32 > 25 {
			t.Errorf("class %v: SG2042 FP32 ratio %.2f outside plausible band [3,25]", c, m32)
		}
		if sg64.ByClass[c].Min < 1 {
			t.Errorf("class %v: some kernel ran slower on the C920 than the U74 (min %.2f)",
				c, sg64.ByClass[c].Min)
		}
	}
	// The V1 must be distinctly slower than the V2 baseline at FP64.
	v1 := bySeries["V1 FP64"]
	for _, c := range kernels.Classes {
		if v1.ByClass[c].Mean >= 1 {
			t.Errorf("class %v: V1 FP64 ratio %.2f should be < 1 (slower than V2)",
				c, v1.ByClass[c].Mean)
		}
	}
}

func TestMemsetStandsOut(t *testing.T) {
	// "the memory set benchmark from the algorithm group ran 40 times
	// faster in FP32 and 18 times faster in FP64 than on the U74" — we
	// require MEMSET to be among the strongest kernels with a large
	// FP32 ratio.
	st := exactStudy()
	base, _ := st.RunSuite(mustMachineCfg(machine.VisionFiveV2(), 1, prec.F64))
	test, _ := st.RunSuite(sgConfig(1, placement.Block, prec.F32))
	k := suiteIndex(t, "MEMSET")
	memset := base[k] / test[k]
	if memset < 8 {
		t.Errorf("MEMSET FP32 ratio %.1f should be large", memset)
	}
	// It should exceed the algorithm-class average (it is the whisker top).
	cs, err := classSummaries(base, test)
	if err != nil {
		t.Fatal(err)
	}
	if memset < cs[kernels.Algorithm].Mean {
		t.Error("MEMSET should be above its class average")
	}
}

func TestScalingTablesShapes(t *testing.T) {
	st := exactStudy()
	block, err := st.ScalingTable(placement.Block)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := st.ScalingTable(placement.CyclicNUMA)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := st.ScalingTable(placement.ClusterCyclic)
	if err != nil {
		t.Fatal(err)
	}

	// Shape 1: cyclic beats block for the stream class at 8-32 threads
	// ("this placement policy delivers significantly improved scaling").
	for _, threads := range []int{8, 16, 32} {
		b := block.Cells[threads][kernels.Stream].Speedup
		cy := cyclic.Cells[threads][kernels.Stream].Speedup
		if cy < b {
			t.Errorf("stream @%d: cyclic %.2f < block %.2f", threads, cy, b)
		}
	}
	// Shape 2: cluster-aware >= cyclic up to 32 threads ("up to and
	// including 32 threads such a policy delivers a noticeable
	// improvement").
	for _, threads := range []int{8, 16, 32} {
		cy := cyclic.Cells[threads][kernels.Stream].Speedup
		cl := cluster.Cells[threads][kernels.Stream].Speedup
		if cl < cy*0.99 {
			t.Errorf("stream @%d: cluster %.2f < cyclic %.2f", threads, cl, cy)
		}
	}
	// Shape 3: Polybench keeps the highest speedup at 64 threads and
	// stays above 20x under cyclic placement (paper: 57.93).
	p64 := cyclic.Cells[64][kernels.Polybench].Speedup
	if p64 < 20 {
		t.Errorf("polybench @64 cyclic speedup %.1f too low", p64)
	}
	for _, c := range kernels.Classes {
		if c == kernels.Polybench {
			continue
		}
		if cyclic.Cells[64][c].Speedup > p64 {
			t.Errorf("class %v out-scaled polybench at 64 threads", c)
		}
	}
	// Shape 4: the stream class collapses at 64 threads (paper: 1.77
	// block / 1.62 cyclic): far below its 16-thread speedup.
	s64 := cyclic.Cells[64][kernels.Stream].Speedup
	s16 := cyclic.Cells[16][kernels.Stream].Speedup
	if s64 > s16 {
		t.Errorf("stream: 64-thread speedup %.2f should fall below 16-thread %.2f", s64, s16)
	}
	// Shape 5: parallel efficiency is Speedup/threads.
	for threads, row := range cyclic.Cells {
		for c, cell := range row {
			want := cell.Speedup / float64(threads)
			if math.Abs(cell.PE-want) > 1e-9 {
				t.Errorf("PE inconsistent for %v@%d", c, threads)
			}
		}
	}
}

func TestFigure2Shapes(t *testing.T) {
	st := exactStudy()
	fig, err := st.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(fig.Series))
	}
	fp32, fp64 := fig.Series[0], fig.Series[1]
	// Stream is the class with the largest FP32 vectorisation benefit
	// ("this demonstrated by far the largest average improvement").
	best := kernels.Stream
	for _, c := range kernels.Classes {
		if fp32.ByClass[c].Mean > fp32.ByClass[best].Mean {
			best = c
		}
	}
	if best != kernels.Stream {
		t.Errorf("largest FP32 vector benefit in %v, want Stream", best)
	}
	// FP32 benefit >= FP64 benefit per class ("greater benefit in
	// enabling vectorisation for single precision").
	for _, c := range kernels.Classes {
		if fp32.ByClass[c].Mean < fp64.ByClass[c].Mean-1e-9 {
			t.Errorf("class %v: FP32 vector ratio %.2f < FP64 %.2f",
				c, fp32.ByClass[c].Mean, fp64.ByClass[c].Mean)
		}
	}
	// No class average should be below 1 at FP32 (benefits outweigh).
	for _, c := range kernels.Classes {
		if fp32.ByClass[c].Mean < 1 {
			t.Errorf("class %v: FP32 vectorisation hurts on average (%.2f)",
				c, fp32.ByClass[c].Mean)
		}
	}
}

func TestFigure3Shapes(t *testing.T) {
	st := exactStudy()
	kb, err := st.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(kb.Kernels) != 13 {
		t.Fatalf("Figure 3 should cover 13 Polybench kernels, got %d", len(kb.Kernels))
	}
	idx := make(map[string]int)
	for i, n := range kb.Kernels {
		idx[n] = i
	}
	var vla, vls []float64
	for _, s := range kb.Series {
		switch s.Label {
		case "Clang VLA":
			vla = s.Ratios
		case "Clang VLS":
			vls = s.Ratios
		}
	}
	if vla == nil || vls == nil {
		t.Fatal("missing VLA/VLS series")
	}
	// 2MM, 3MM, GEMM: "switching to Clang delivers worse performance".
	for _, name := range []string{"2MM", "3MM", "GEMM"} {
		if vls[idx[name]] >= 1 {
			t.Errorf("%s: Clang VLS ratio %.2f should be < 1", name, vls[idx[name]])
		}
	}
	// Warshall and Heat3D: Clang wins (GCC runs scalar).
	for _, name := range []string{"FLOYD_WARSHALL", "HEAT_3D"} {
		if vls[idx[name]] <= 1 {
			t.Errorf("%s: Clang VLS ratio %.2f should be > 1", name, vls[idx[name]])
		}
	}
	// Jacobi1D: Clang wins (GCC scalar at runtime); Jacobi2D: Clang
	// loses ("a surprise was that the Jacobi2D kernel is slower with
	// Clang").
	if vls[idx["JACOBI_1D"]] <= 1 {
		t.Errorf("JACOBI_1D: Clang should win (%.2f)", vls[idx["JACOBI_1D"]])
	}
	if vls[idx["JACOBI_2D"]] >= 1 {
		t.Errorf("JACOBI_2D: Clang should lose (%.2f)", vls[idx["JACOBI_2D"]])
	}
	// "VLS tends to outperform VLA": on average across kernels.
	sumVLA, sumVLS := 0.0, 0.0
	for i := range vla {
		sumVLA += vla[i]
		sumVLS += vls[i]
	}
	if sumVLS < sumVLA {
		t.Errorf("VLS average %.2f should be >= VLA %.2f", sumVLS/13, sumVLA/13)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	rows := Table4()
	if len(rows) != 4 {
		t.Fatalf("Table 4 has %d rows, want 4", len(rows))
	}
	if rows[0].Part != "EPYC 7742" || rows[0].Cores != 64 || rows[0].Vector != "AVX2" {
		t.Errorf("Rome row wrong: %+v", rows[0])
	}
	if rows[3].Part != "Xeon E5-2609" || rows[3].Cores != 4 || rows[3].Vector != "AVX" {
		t.Errorf("Sandybridge row wrong: %+v", rows[3])
	}
	// Rows must agree with the machine presets.
	for _, r := range rows {
		var m *machine.Machine
		switch r.Part {
		case "EPYC 7742":
			m = machine.EPYC7742()
		case "Xeon E5-2695":
			m = machine.XeonE52695()
		case "Xeon 6330":
			m = machine.Xeon6330()
		case "Xeon E5-2609":
			m = machine.XeonE52609()
		}
		if m.Cores != r.Cores {
			t.Errorf("%s: table cores %d != preset %d", r.Part, r.Cores, m.Cores)
		}
	}
}

func TestFigure4SingleCoreFP64(t *testing.T) {
	// Conclusions: single-core FP64 averages — Rome ~4x, Broadwell ~4x,
	// Icelake ~5x, Sandybridge ~1.2x. Verify ordering and bands.
	st := exactStudy()
	fig, err := st.XCompare(prec.F64, false)
	if err != nil {
		t.Fatal(err)
	}
	avg := seriesGrandMeans(fig)
	for label, want := range map[string][2]float64{
		"Rome":        {2.0, 8},
		"Broadwell":   {2.0, 8},
		"Icelake":     {2.5, 10},
		"Sandybridge": {0.7, 2.5},
	} {
		if avg[label] < want[0] || avg[label] > want[1] {
			t.Errorf("%s FP64 single-core grand mean %.2f outside [%v,%v]",
				label, avg[label], want[0], want[1])
		}
	}
	if avg["Sandybridge"] >= avg["Rome"] {
		t.Error("Sandybridge should trail Rome")
	}
}

func TestFigure6MultithreadedFP64(t *testing.T) {
	// Conclusions: multithreaded FP64 — Rome ~5x, Broadwell ~4x,
	// Icelake ~8x faster than the SG2042; Sandybridge *slower* ("the 64
	// cores of the SG2042 outperformed the 4 cores of the Sandybridge").
	st := exactStudy()
	fig, err := st.XCompare(prec.F64, true)
	if err != nil {
		t.Fatal(err)
	}
	avg := seriesGrandMeans(fig)
	for _, label := range []string{"Rome", "Broadwell", "Icelake"} {
		if avg[label] < 1.5 {
			t.Errorf("%s multithreaded FP64 mean %.2f should be well above 1", label, avg[label])
		}
	}
	if avg["Sandybridge"] >= 1 {
		t.Errorf("Sandybridge multithreaded mean %.2f should be < 1 (SG2042 wins)",
			avg["Sandybridge"])
	}
}

func seriesGrandMeans(fig Figure) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range fig.Series {
		sum, n := 0.0, 0
		for _, c := range kernels.Classes {
			if cs, ok := s.ByClass[c]; ok {
				sum += cs.Mean
				n++
			}
		}
		out[s.Label] = sum / float64(n)
	}
	return out
}

func TestBestSGThreads(t *testing.T) {
	st := exactStudy()
	// Stream kernels should prefer 32 threads ("for some benchmark
	// classes 32 threads provided better performance compared to 64").
	spec, _ := suite.ByName("TRIAD")
	threads, _, secs, err := st.BestSGThreads(spec, prec.F64)
	if err != nil {
		t.Fatal(err)
	}
	if threads != 32 {
		t.Errorf("TRIAD best threads = %d, want 32", threads)
	}
	if secs <= 0 {
		t.Error("non-positive best time")
	}
	// GEMM should prefer 64.
	spec, _ = suite.ByName("GEMM")
	threads, _, _, err = st.BestSGThreads(spec, prec.F64)
	if err != nil {
		t.Fatal(err)
	}
	if threads != 64 {
		t.Errorf("GEMM best threads = %d, want 64", threads)
	}
}

// suiteIndex is a kernel's position in suite.All(), the index of its
// time in a suite result.
func suiteIndex(t *testing.T, name string) int {
	t.Helper()
	for i, spec := range suite.All() {
		if spec.Name == name {
			return i
		}
	}
	t.Fatalf("no kernel %s in the suite", name)
	return -1
}

func TestClassCellsRejectsNonPositiveTime(t *testing.T) {
	st := exactStudy()
	base, err := st.RunSuite(sgConfig(1, placement.Block, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -1} {
		test := append([]float64(nil), base...)
		test[suiteIndex(t, "TRIAD")] = bad
		if _, err := classCells(base, test); err == nil {
			t.Errorf("time %v accepted", bad)
		}
	}
}

// classCells must aggregate exactly as a name-keyed pipeline does —
// per-kernel ratios looked up by name, grouped by class in suite order
// — bit for bit, since every figure, table and campaign reads it.
func TestClassCellsMatchNameKeyedAggregation(t *testing.T) {
	st := NewStudy()
	base, err := st.RunSuite(mustMachineCfg(machine.VisionFiveV2(), 1, prec.F64))
	if err != nil {
		t.Fatal(err)
	}
	test, err := st.RunSuite(sgConfig(4, placement.CyclicNUMA, prec.F32))
	if err != nil {
		t.Fatal(err)
	}
	baseBy, testBy := map[string]float64{}, map[string]float64{}
	for i, spec := range suite.All() {
		baseBy[spec.Name], testBy[spec.Name] = base[i], test[i]
	}
	cells, err := classCells(base, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range kernels.Classes {
		var secs, ratios []float64
		for _, spec := range suite.All() {
			if spec.Class == c {
				secs = append(secs, testBy[spec.Name])
				ratios = append(ratios, baseBy[spec.Name]/testBy[spec.Name])
			}
		}
		want := CampaignCell{Seconds: stats.Mean(secs), Ratio: stats.Summarize(ratios)}
		if cells[c] != want {
			t.Errorf("class %v: classCells %+v, name-keyed %+v", c, cells[c], want)
		}
	}
}

func TestConfigSeedDistinguishes(t *testing.T) {
	a := sgConfig(1, placement.Block, prec.F32)
	b := sgConfig(2, placement.Block, prec.F32)
	c := mustMachineCfg(machine.EPYC7742(), 1, prec.F32)
	if configSeed(a) == configSeed(b) || configSeed(a) == configSeed(c) {
		t.Error("config seeds should differ across configurations")
	}
	cfg := perfmodel.Config{Machine: machine.SG2042(), Threads: 1, Prec: prec.F32}
	scalar := cfg
	scalar.ScalarOnly = true
	if configSeed(cfg) == configSeed(scalar) {
		t.Error("scalar flag should change the seed")
	}
}
