package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// newTabWriter returns the standard table writer used by every render.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// RenderTableI writes the Table I reproduction.
func RenderTableI(w io.Writer, rows []TableIRow) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Ckt\tIns\tGates\tPatterns\tX%\tcov%\tpaper-Ins\tpaper-Gates\tpaper-X%")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%d\t%d\t%.1f\n",
			r.Ckt, r.Inputs, r.Gates, r.Patterns, r.XPct, r.Coverage,
			r.PaperIn, r.PaperGates, r.PaperXPct)
	}
	return tw.Flush()
}

// RenderPeakTable writes a Table II/III/IV reproduction. When the
// published table for the ordering exists, each row gains the paper's
// DP-fill value and a win marker.
func RenderPeakTable(w io.Writer, ordering string, rows []PeakRow) error {
	paper := PaperPeakTable(ordering)
	tw := newTabWriter(w)
	header := "Ckt\t" + strings.Join(FillNames, "\t") + "\tbest"
	if paper != nil {
		header += "\tpaper-DP"
	}
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		_, bi := r.Best()
		cells := make([]string, len(r.Peaks))
		for i, v := range r.Peaks {
			cells[i] = fmt.Sprintf("%d", v)
			if i == bi {
				cells[i] = "*" + cells[i]
			}
		}
		line := fmt.Sprintf("%s\t%s\t%s", r.Ckt, strings.Join(cells, "\t"), FillNames[bi])
		if paper != nil {
			if pv, ok := paper[r.Ckt]; ok {
				line += fmt.Sprintf("\t%d", pv[len(pv)-1])
			} else {
				line += "\t-"
			}
		}
		fmt.Fprintln(tw, line)
	}
	return tw.Flush()
}

// RenderPeakTimings writes the per-job wall-clock timings the batch
// engine recorded while producing a peak table: one millisecond cell
// per circuit × fill, plus the row total. Rows without timing data
// (not produced by PeakTable) render as dashes.
func RenderPeakTimings(w io.Writer, ordering string, rows []PeakRow) error {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Ckt\t%s\ttotal (fill ms, %s ordering)\n", strings.Join(FillNames, "\t"), ordering)
	for _, r := range rows {
		cells := make([]string, len(FillNames))
		var total float64
		for i := range FillNames {
			if i >= len(r.Durations) {
				cells[i] = "-"
				continue
			}
			ms := float64(r.Durations[i].Microseconds()) / 1000
			total += ms
			cells[i] = fmt.Sprintf("%.2f", ms)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", r.Ckt, strings.Join(cells, "\t"), total)
	}
	return tw.Flush()
}

// RenderCompareTable writes a Table V/VI reproduction next to the
// published numbers. metric formats a value (e.g. "%d" peaks vs "%.1f"
// µW); paper is PaperTableV or PaperTableVI (may be nil).
func RenderCompareTable(w io.Writer, rows []CompareRow, intValues bool, paper map[string][]float64) error {
	tw := newTabWriter(w)
	header := "Ckt\t" + strings.Join(TechniqueNames, "\t") + "\t%imp(Tool)\t%imp(X-Stat)"
	if paper != nil {
		header += "\tpaper-Proposed"
	}
	fmt.Fprintln(tw, header)
	fmtVal := func(v float64) string {
		if intValues {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range rows {
		cells := make([]string, len(r.Values))
		for i, v := range r.Values {
			cells[i] = fmtVal(v)
		}
		line := fmt.Sprintf("%s\t%s\t%.1f\t%.1f", r.Ckt, strings.Join(cells, "\t"),
			r.ImprovementPct[0], r.ImprovementPct[3])
		if paper != nil {
			if pv, ok := paper[r.Ckt]; ok {
				line += "\t" + fmtVal(pv[len(pv)-1])
			} else {
				line += "\t-"
			}
		}
		fmt.Fprintln(tw, line)
	}
	return tw.Flush()
}

// RenderFig1 writes the motivating-example comparison.
func RenderFig1(w io.Writer, r *Fig1Result) error {
	fmt.Fprintf(w, "Fig. 1 motivating example (%d pins x %d vectors)\n",
		r.Input.Width, r.Input.Len())
	fmt.Fprintf(w, "  input cubes:\n")
	for i := 0; i < r.Input.Width; i++ {
		row := r.Input.Row(i)
		var sb strings.Builder
		for _, t := range row {
			sb.WriteRune(t.Rune())
		}
		fmt.Fprintf(w, "    pin%d: %s\n", i, sb.String())
	}
	fmt.Fprintf(w, "  X-Stat peak toggles: %d\n", r.XStatPeak)
	fmt.Fprintf(w, "  DP-fill peak toggles: %d (optimal)\n", r.DPPeak)
	fmt.Fprintf(w, "  paper reports 3 vs 2 on its example — same shape: greedy sub-optimality\n")
	return nil
}

// RenderFig2a writes the iteration trajectories.
func RenderFig2a(w io.Writer, series []Fig2aSeries) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Ckt\tk=1..\tpeaks")
	for _, s := range series {
		var ks, ps []string
		for _, t := range s.Traces {
			ks = append(ks, fmt.Sprintf("%d", t.K))
			ps = append(ps, fmt.Sprintf("%d", t.Peak))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", s.Ckt, strings.Join(ks, ","), strings.Join(ps, ","))
	}
	return tw.Flush()
}

// RenderFig2b writes the iterations-vs-log(n) scatter and its fit.
func RenderFig2b(w io.Writer, points []Fig2bPoint) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Ckt\tpatterns\tlog2(n)\titerations")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%d\n", p.Ckt, p.Patterns, p.Log2N, p.Iterations)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	slope, intercept, r := Fig2bFit(points)
	fmt.Fprintf(w, "fit: iterations ~ %.2f*log2(n) %+.2f (r=%.2f); paper observes O(log n)\n",
		slope, intercept, r)
	return nil
}

// RenderFig2c writes the stretch statistics per ordering.
func RenderFig2c(w io.Writer, r *Fig2cResult) error {
	fmt.Fprintf(w, "Don't-care stretch statistics for %s (Fig. 2(c))\n", r.Ckt)
	for _, name := range r.OrderingNames {
		if err := r.PerOrdering[name].WriteHistogram(w, name); err != nil {
			return err
		}
	}
	return nil
}
