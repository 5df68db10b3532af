package report

// Campaign renderers. A campaign is summarised as ranked tables — the
// full grid ordered by speedup against each point's base machine, the
// best configuration per kernel class, and the cores x time Pareto
// front — in fixed-width text and as flat CSV (one row per point and
// class, with the point-level columns repeated, so spreadsheet pivots
// work without parsing sections).

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
)

// pad writes s padded with spaces to width — fmt's %-Ns (leftAlign) or
// %Ns on a pre-rendered value, without the per-argument interface
// boxing that made the row loops the renderer's allocation hot spot. A
// value longer than width is written unpadded, exactly as fmt does.
func pad(b *strings.Builder, s []byte, width int, leftAlign bool) {
	if !leftAlign {
		for i := len(s); i < width; i++ {
			b.WriteByte(' ')
		}
	}
	b.Write(s)
	if leftAlign {
		for i := len(s); i < width; i++ {
			b.WriteByte(' ')
		}
	}
}

func padStr(b *strings.Builder, s string, width int, leftAlign bool) {
	if !leftAlign {
		for i := len(s); i < width; i++ {
			b.WriteByte(' ')
		}
	}
	b.WriteString(s)
	if leftAlign {
		for i := len(s); i < width; i++ {
			b.WriteByte(' ')
		}
	}
}

// writeConfig writes a point's software configuration compactly
// ("64t block FP32"), left-aligned to width — the "%-18s" config
// column, rendered in place instead of through an intermediate string.
func writeConfig(b *strings.Builder, p core.CampaignPoint, width int) {
	var num [24]byte
	start := b.Len()
	b.Write(strconv.AppendInt(num[:0], int64(p.Threads), 10))
	b.WriteString("t ")
	b.WriteString(p.Placement.String())
	b.WriteByte(' ')
	b.WriteString(p.Prec.String())
	for i := b.Len() - start; i < width; i++ {
		b.WriteByte(' ')
	}
}

// CampaignText renders a campaign result as fixed-width text: the
// ranked grid, the per-class winners, and the Pareto front. The row
// loops format by appending — each verb replicated byte-for-byte (the
// determinism gate diffs this output against the fmt-based renderer's)
// — because a large campaign renders thousands of rows and fmt boxes
// every argument.
func CampaignText(res core.CampaignResult) string {
	var b strings.Builder
	// ~90 bytes per table row across three tables, plus headers.
	b.Grow(256 + 96*(len(res.Ranked)+len(res.Pareto)+len(res.BestByClass)))
	var num [32]byte
	b.WriteString(res.Title)
	b.WriteByte('\n')
	b.WriteString("(speedup = class-mean ratio vs the point's base machine under the same software config)\n\n")

	b.WriteString("Ranked by mean speedup vs base:\n")
	fmt.Fprintf(&b, "  %-4s %-22s %-18s %6s %12s %9s\n",
		"rank", "machine", "config", "cores", "suite(s)", "speedup")
	for rank, i := range res.Ranked {
		p := res.Points[i]
		// "  %-4d %-22s %-18s %6d %12.4f %9.3f\n"
		b.WriteString("  ")
		pad(&b, strconv.AppendInt(num[:0], int64(rank+1), 10), 4, true)
		b.WriteByte(' ')
		padStr(&b, p.Machine, 22, true)
		b.WriteByte(' ')
		writeConfig(&b, p, 18)
		b.WriteByte(' ')
		pad(&b, strconv.AppendInt(num[:0], int64(p.Cores), 10), 6, false)
		b.WriteByte(' ')
		pad(&b, strconv.AppendFloat(num[:0], p.TotalSeconds, 'f', 4, 64), 12, false)
		b.WriteByte(' ')
		pad(&b, strconv.AppendFloat(num[:0], p.MeanRatio, 'f', 3, 64), 9, false)
		b.WriteByte('\n')
	}

	b.WriteString("\nBest configuration per class:\n")
	fmt.Fprintf(&b, "  %-10s %-22s %-18s %12s %9s\n",
		"class", "machine", "config", "class(s)", "speedup")
	for _, class := range kernels.Classes {
		i, ok := res.BestByClass[class]
		if !ok {
			continue
		}
		p := res.Points[i]
		cell := p.ByClass[class]
		// "  %-10s %-22s %-18s %12.4f %9.3f\n"
		b.WriteString("  ")
		padStr(&b, class.String(), 10, true)
		b.WriteByte(' ')
		padStr(&b, p.Machine, 22, true)
		b.WriteByte(' ')
		writeConfig(&b, p, 18)
		b.WriteByte(' ')
		pad(&b, strconv.AppendFloat(num[:0], cell.Seconds, 'f', 4, 64), 12, false)
		b.WriteByte(' ')
		pad(&b, strconv.AppendFloat(num[:0], cell.Ratio.Mean, 'f', 3, 64), 9, false)
		b.WriteByte('\n')
	}

	b.WriteString("\nPareto front (cores vs full-suite time):\n")
	fmt.Fprintf(&b, "  %6s %12s  %-22s %-18s\n", "cores", "suite(s)", "machine", "config")
	for _, i := range res.Pareto {
		p := res.Points[i]
		// "  %6d %12.4f  %-22s %-18s\n"
		b.WriteString("  ")
		pad(&b, strconv.AppendInt(num[:0], int64(p.Cores), 10), 6, false)
		b.WriteByte(' ')
		pad(&b, strconv.AppendFloat(num[:0], p.TotalSeconds, 'f', 4, 64), 12, false)
		b.WriteString("  ")
		padStr(&b, p.Machine, 22, true)
		b.WriteByte(' ')
		writeConfig(&b, p, 18)
		b.WriteByte('\n')
	}
	return b.String()
}

// CampaignCSV renders a campaign as CSV: one row per (point, class),
// point-level columns repeated, plus pareto/best-in-class flags.
func CampaignCSV(res core.CampaignResult) string {
	onFront := make(map[int]bool, len(res.Pareto))
	for _, i := range res.Pareto {
		onFront[i] = true
	}
	var b strings.Builder
	b.WriteString("point,base,machine,threads,placement,prec,cores," +
		"class,class_seconds,ratio_vs_base,total_seconds,mean_ratio,pareto,best_in_class\n")
	for _, p := range res.Points {
		for _, class := range kernels.Classes {
			cell := p.ByClass[class]
			best := 0
			if i, ok := res.BestByClass[class]; ok && i == p.Index {
				best = 1
			}
			pareto := 0
			if onFront[p.Index] {
				pareto = 1
			}
			fmt.Fprintf(&b, "%d,%s,%s,%d,%s,%v,%d,%s,%.6g,%.4f,%.6g,%.4f,%d,%d\n",
				p.Index, p.Base, p.Machine, p.Threads, p.Placement, p.Prec, p.Cores,
				class, cell.Seconds, cell.Ratio.Mean, p.TotalSeconds, p.MeanRatio,
				pareto, best)
		}
	}
	return b.String()
}
