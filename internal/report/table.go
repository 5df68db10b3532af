package report

// Binary-table converters. Each result shape maps onto one
// wire.Table carrying the same data its CSV rendering carries — the
// binary format is a transport, not a new report — so a client decoding
// a frame sees exactly the columns the CSV header names, with native
// numeric types instead of formatted decimals. Conversion is pure
// restructuring: no formatting, no maps in the output, rows always in
// the renderers' deterministic order, so one result has exactly one
// frame byte-representation (the binary leg of the determinism
// contract).

import (
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/wire"
)

// FigureTable converts a class-level figure to its wire table:
// series,class,mean_ratio,min_ratio,max_ratio — the FigureCSV columns.
func FigureTable(fig core.Figure) wire.Table {
	var series, classes []string
	var mean, min, max []float64
	for _, s := range fig.Series {
		for _, c := range kernels.Classes {
			sum, ok := s.ByClass[c]
			if !ok {
				continue
			}
			series = append(series, s.Label)
			classes = append(classes, c.String())
			mean = append(mean, sum.Mean)
			min = append(min, sum.Min)
			max = append(max, sum.Max)
		}
	}
	return wire.Table{
		Kind:  "figure",
		Title: fig.Title,
		Columns: []wire.Column{
			{Name: "series", Type: wire.String, Strings: series},
			{Name: "class", Type: wire.String, Strings: classes},
			{Name: "mean_ratio", Type: wire.Float64, Floats: mean},
			{Name: "min_ratio", Type: wire.Float64, Floats: min},
			{Name: "max_ratio", Type: wire.Float64, Floats: max},
		},
	}
}

// ScalingTableWire converts a Tables-1-3 result to its wire table:
// threads,class,speedup,parallel_efficiency.
func ScalingTableWire(t core.ScalingTableResult) wire.Table {
	var threads []int64
	var classes []string
	var speedup, pe []float64
	for _, n := range t.Threads {
		row, ok := t.Cells[n]
		if !ok {
			continue
		}
		for _, c := range kernels.Classes {
			cell, ok := row[c]
			if !ok {
				continue
			}
			threads = append(threads, int64(n))
			classes = append(classes, c.String())
			speedup = append(speedup, cell.Speedup)
			pe = append(pe, cell.PE)
		}
	}
	return wire.Table{
		Kind:  "scaling",
		Title: t.Title,
		Columns: []wire.Column{
			{Name: "threads", Type: wire.Int64, Ints: threads},
			{Name: "class", Type: wire.String, Strings: classes},
			{Name: "speedup", Type: wire.Float64, Floats: speedup},
			{Name: "parallel_efficiency", Type: wire.Float64, Floats: pe},
		},
	}
}

// KernelBarsTable converts a per-kernel figure to its wire table: the
// kernel name column plus one float column per series (raw ratios, as
// in KernelBarsCSV).
func KernelBarsTable(kb core.KernelBars) wire.Table {
	t := wire.Table{
		Kind:  "kernels",
		Title: kb.Title,
		Columns: []wire.Column{
			{Name: "kernel", Type: wire.String, Strings: append([]string(nil), kb.Kernels...)},
		},
	}
	for _, s := range kb.Series {
		t.Columns = append(t.Columns, wire.Column{
			Name: s.Label, Type: wire.Float64,
			Floats: append([]float64(nil), s.Ratios...),
		})
	}
	return t
}

// Table4Wire converts the x86 summary to its wire table.
func Table4Wire(rows []core.Table4Row) wire.Table {
	n := len(rows)
	cpu, part, clock, vector := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
	cores := make([]int64, n)
	for i, r := range rows {
		cpu[i], part[i], clock[i], vector[i] = r.CPU, r.Part, r.Clock, r.Vector
		cores[i] = int64(r.Cores)
	}
	return wire.Table{
		Kind:  "table4",
		Title: "Table 4: Summary of x86 CPUs used to compare against the SG2042",
		Columns: []wire.Column{
			{Name: "cpu", Type: wire.String, Strings: cpu},
			{Name: "part", Type: wire.String, Strings: part},
			{Name: "clock", Type: wire.String, Strings: clock},
			{Name: "cores", Type: wire.Int64, Ints: cores},
			{Name: "vector", Type: wire.String, Strings: vector},
		},
	}
}

// CampaignTable converts a campaign result to its wire table: one row
// per (point, class) with the point-level columns repeated, plus the
// pareto/best-in-class flags — the CampaignCSV columns with native
// types.
func CampaignTable(res core.CampaignResult) wire.Table {
	onFront := make(map[int]bool, len(res.Pareto))
	for _, i := range res.Pareto {
		onFront[i] = true
	}
	var (
		point, threads, cores, pareto, best []int64
		base, machine, placement, precs     []string
		classes                             []string
		classSeconds, ratio, total, meanR   []float64
	)
	for _, p := range res.Points {
		for _, class := range kernels.Classes {
			cell := p.ByClass[class]
			bestFlag := int64(0)
			if i, ok := res.BestByClass[class]; ok && i == p.Index {
				bestFlag = 1
			}
			paretoFlag := int64(0)
			if onFront[p.Index] {
				paretoFlag = 1
			}
			point = append(point, int64(p.Index))
			base = append(base, p.Base)
			machine = append(machine, p.Machine)
			threads = append(threads, int64(p.Threads))
			placement = append(placement, p.Placement.String())
			precs = append(precs, p.Prec.String())
			cores = append(cores, int64(p.Cores))
			classes = append(classes, class.String())
			classSeconds = append(classSeconds, cell.Seconds)
			ratio = append(ratio, cell.Ratio.Mean)
			total = append(total, p.TotalSeconds)
			meanR = append(meanR, p.MeanRatio)
			pareto = append(pareto, paretoFlag)
			best = append(best, bestFlag)
		}
	}
	return wire.Table{
		Kind:  "campaign",
		Title: res.Title,
		Columns: []wire.Column{
			{Name: "point", Type: wire.Int64, Ints: point},
			{Name: "base", Type: wire.String, Strings: base},
			{Name: "machine", Type: wire.String, Strings: machine},
			{Name: "threads", Type: wire.Int64, Ints: threads},
			{Name: "placement", Type: wire.String, Strings: placement},
			{Name: "prec", Type: wire.String, Strings: precs},
			{Name: "cores", Type: wire.Int64, Ints: cores},
			{Name: "class", Type: wire.String, Strings: classes},
			{Name: "class_seconds", Type: wire.Float64, Floats: classSeconds},
			{Name: "ratio_vs_base", Type: wire.Float64, Floats: ratio},
			{Name: "total_seconds", Type: wire.Float64, Floats: total},
			{Name: "mean_ratio", Type: wire.Float64, Floats: meanR},
			{Name: "pareto", Type: wire.Int64, Ints: pareto},
			{Name: "best_in_class", Type: wire.Int64, Ints: best},
		},
	}
}

// ReportTable wraps a rendered text report (roofline, cluster) as a
// one-row wire table, so the binary format covers every endpoint: the
// report text travels verbatim in the output column, like the JSON
// envelope's Output field.
func ReportTable(machine, report, output string) wire.Table {
	return wire.Table{
		Kind:  "report",
		Title: report + ": " + machine,
		Columns: []wire.Column{
			{Name: "machine", Type: wire.String, Strings: []string{machine}},
			{Name: "report", Type: wire.String, Strings: []string{report}},
			{Name: "output", Type: wire.String, Strings: []string{output}},
		},
	}
}
