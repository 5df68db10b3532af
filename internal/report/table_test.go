package report

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Each converter is pure restructuring: the table must carry exactly
// the input's values, in the renderers' deterministic order, equal-rows
// across columns (so it encodes), and with classes absent from the
// input skipped rather than zero-filled.

func validEncodable(t *testing.T, tab wire.Table) {
	t.Helper()
	if _, err := wire.Encode(tab); err != nil {
		t.Fatalf("converted table does not encode: %v", err)
	}
}

func TestFigureTable(t *testing.T) {
	fig := core.Figure{
		Title: "Figure X",
		Series: []core.Series{
			{Label: "SG2042 FP64", ByClass: map[kernels.Class]stats.Summary{
				kernels.Basic:  {N: 16, Mean: 1.5, Min: 0.5, Max: 3.0},
				kernels.Stream: {N: 5, Mean: 2.0, Min: 1.0, Max: 4.0},
			}},
			{Label: "SG2042 FP32", ByClass: map[kernels.Class]stats.Summary{
				kernels.Basic: {N: 16, Mean: 2.5, Min: 1.5, Max: 5.0},
			}},
		},
	}
	tab := FigureTable(fig)
	validEncodable(t, tab)
	if tab.Kind != "figure" || tab.Title != "Figure X" {
		t.Errorf("kind %q title %q", tab.Kind, tab.Title)
	}
	// 2 classes in series 1 + 1 in series 2; map iteration must not leak
	// in: rows follow kernels.Classes order within each series.
	if got := tab.NumRows(); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	wantSeries := []string{"SG2042 FP64", "SG2042 FP64", "SG2042 FP32"}
	wantClass := []string{"Basic", "Stream", "Basic"}
	if !reflect.DeepEqual(tab.Columns[0].Strings, wantSeries) {
		t.Errorf("series column %v, want %v", tab.Columns[0].Strings, wantSeries)
	}
	if !reflect.DeepEqual(tab.Columns[1].Strings, wantClass) {
		t.Errorf("class column %v, want %v", tab.Columns[1].Strings, wantClass)
	}
	if !reflect.DeepEqual(tab.Columns[2].Floats, []float64{1.5, 2.0, 2.5}) {
		t.Errorf("mean_ratio column %v", tab.Columns[2].Floats)
	}
	if !reflect.DeepEqual(tab.Columns[4].Floats, []float64{3.0, 4.0, 5.0}) {
		t.Errorf("max_ratio column %v", tab.Columns[4].Floats)
	}
}

func TestScalingTableWire(t *testing.T) {
	res := core.ScalingTableResult{
		Title:   "Table N",
		Threads: []int{2, 64},
		Cells: map[int]map[kernels.Class]core.ScalingCell{
			2: {
				kernels.Basic: {Speedup: 1.9, PE: 0.95},
				kernels.Lcals: {Speedup: 1.8, PE: 0.9},
			},
			64: {
				kernels.Basic: {Speedup: 40, PE: 0.625},
			},
		},
	}
	tab := ScalingTableWire(res)
	validEncodable(t, tab)
	if tab.Kind != "scaling" || tab.NumRows() != 3 {
		t.Fatalf("kind %q rows %d", tab.Kind, tab.NumRows())
	}
	if !reflect.DeepEqual(tab.Columns[0].Ints, []int64{2, 2, 64}) {
		t.Errorf("threads column %v", tab.Columns[0].Ints)
	}
	if !reflect.DeepEqual(tab.Columns[1].Strings, []string{"Basic", "Lcals", "Basic"}) {
		t.Errorf("class column %v", tab.Columns[1].Strings)
	}
	if !reflect.DeepEqual(tab.Columns[2].Floats, []float64{1.9, 1.8, 40}) {
		t.Errorf("speedup column %v", tab.Columns[2].Floats)
	}
	if !reflect.DeepEqual(tab.Columns[3].Floats, []float64{0.95, 0.9, 0.625}) {
		t.Errorf("parallel_efficiency column %v", tab.Columns[3].Floats)
	}
}

func TestKernelBarsTable(t *testing.T) {
	kb := core.KernelBars{
		Title:   "Figure 3",
		Kernels: []string{"GEMM", "ATAX"},
	}
	kb.Series = append(kb.Series,
		struct {
			Label  string
			Ratios []float64
		}{"Clang VLA", []float64{1.1, 0.9}},
		struct {
			Label  string
			Ratios []float64
		}{"Clang VLS", []float64{1.3, 1.0}},
	)
	tab := KernelBarsTable(kb)
	validEncodable(t, tab)
	if tab.Kind != "kernels" || len(tab.Columns) != 3 {
		t.Fatalf("kind %q columns %d", tab.Kind, len(tab.Columns))
	}
	if !reflect.DeepEqual(tab.Columns[0].Strings, []string{"GEMM", "ATAX"}) {
		t.Errorf("kernel column %v", tab.Columns[0].Strings)
	}
	if tab.Columns[1].Name != "Clang VLA" || !reflect.DeepEqual(tab.Columns[1].Floats, []float64{1.1, 0.9}) {
		t.Errorf("series 1: %q %v", tab.Columns[1].Name, tab.Columns[1].Floats)
	}
	if tab.Columns[2].Name != "Clang VLS" || !reflect.DeepEqual(tab.Columns[2].Floats, []float64{1.3, 1.0}) {
		t.Errorf("series 2: %q %v", tab.Columns[2].Name, tab.Columns[2].Floats)
	}
	// The converter must copy, not alias: mutating the table must not
	// write through to the result the study may have cached.
	tab.Columns[0].Strings[0] = "mutated"
	tab.Columns[1].Floats[0] = -1
	if kb.Kernels[0] != "GEMM" || kb.Series[0].Ratios[0] != 1.1 {
		t.Error("KernelBarsTable aliased the input's slices")
	}
}

func TestTable4Wire(t *testing.T) {
	tab := Table4Wire(core.Table4())
	validEncodable(t, tab)
	if tab.Kind != "table4" {
		t.Errorf("kind %q", tab.Kind)
	}
	if tab.NumRows() != len(core.Table4()) {
		t.Errorf("rows %d, want %d", tab.NumRows(), len(core.Table4()))
	}
	if tab.Columns[0].Strings[0] != "AMD Rome" || tab.Columns[3].Ints[0] != 64 {
		t.Errorf("first row: cpu %q cores %d", tab.Columns[0].Strings[0], tab.Columns[3].Ints[0])
	}
}

func TestCampaignTable(t *testing.T) {
	uniform := func(secs, mean float64) (cells [kernels.NumClasses]core.CampaignCell) {
		for c := range cells {
			cells[c] = core.CampaignCell{Seconds: secs, Ratio: stats.Summary{Mean: mean}}
		}
		return cells
	}
	faster := uniform(2.0, 1.25)
	faster[kernels.Stream] = core.CampaignCell{Seconds: 1.0, Ratio: stats.Summary{Mean: 1.5}}
	best := map[kernels.Class]int{}
	for _, c := range kernels.Classes {
		best[c] = 1
	}
	res := core.CampaignResult{
		Title: "Campaign: test",
		Points: []core.CampaignPoint{
			{
				Index: 0, Base: "SG2042", Machine: "SG2042", Threads: 64,
				Placement: placement.Block, Prec: prec.F64, Cores: 64,
				TotalSeconds: 10, MeanRatio: 1.0,
				ByClass: uniform(2.5, 1.0),
			},
			{
				Index: 1, Base: "SG2042", Machine: "SG2042[clock=2.5GHz]", Threads: 64,
				Placement: placement.CyclicNUMA, Prec: prec.F32, Cores: 64,
				TotalSeconds: 8, MeanRatio: 1.25,
				ByClass: faster,
			},
		},
		BestByClass: best,
		Pareto:      []int{1},
	}
	tab := CampaignTable(res)
	validEncodable(t, tab)
	// One row per (point, class), classes in kernels.Classes order.
	if tab.Kind != "campaign" || tab.NumRows() != 2*kernels.NumClasses {
		t.Fatalf("kind %q rows %d", tab.Kind, tab.NumRows())
	}
	if !reflect.DeepEqual(tab.Columns[0].Ints, []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}) {
		t.Errorf("point column %v", tab.Columns[0].Ints)
	}
	if tab.Columns[4].Strings[5] != "block" || tab.Columns[4].Strings[6] != "cyclic" {
		t.Errorf("placement column %v", tab.Columns[4].Strings)
	}
	if tab.Columns[7].Strings[0] != "Algorithm" || tab.Columns[7].Strings[11] != "Stream" {
		t.Errorf("class column %v", tab.Columns[7].Strings)
	}
	// Point 0 is dominated, point 1 is on the front and best in every
	// class: flags are per-row.
	if !reflect.DeepEqual(tab.Columns[12].Ints, []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}) {
		t.Errorf("pareto column %v", tab.Columns[12].Ints)
	}
	if !reflect.DeepEqual(tab.Columns[13].Ints, []int64{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}) {
		t.Errorf("best_in_class column %v", tab.Columns[13].Ints)
	}
	if !reflect.DeepEqual(tab.Columns[8].Floats, []float64{2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0}) {
		t.Errorf("class_seconds column %v", tab.Columns[8].Floats)
	}
}

func TestReportTable(t *testing.T) {
	tab := ReportTable("SG2042", "roofline", "the report text\n")
	validEncodable(t, tab)
	if tab.Kind != "report" || tab.Title != "roofline: SG2042" || tab.NumRows() != 1 {
		t.Fatalf("kind %q title %q rows %d", tab.Kind, tab.Title, tab.NumRows())
	}
	if tab.Columns[2].Name != "output" || tab.Columns[2].Strings[0] != "the report text\n" {
		t.Errorf("output column: %q = %q", tab.Columns[2].Name, tab.Columns[2].Strings)
	}
}
