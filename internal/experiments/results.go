package experiments

// The results writer: every section of RESULTS.txt, in its committed
// order, rendered from one suite. cmd/experiments prints it, and
// TestGoldenResultsUnchanged compares its scale-1 output with the
// committed RESULTS.txt byte for byte.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"leakbound/internal/power"
	"leakbound/internal/report"
)

// TableRenderer writes one table in an output format:
// (*report.Table).Render, RenderMarkdown or RenderCSV.
type TableRenderer func(*report.Table, io.Writer) error

// resultsSection is one selectable part of the results.
type resultsSection struct {
	name string
	// optIn sections are written only when named, never in the full run.
	optIn bool
	write func(*resultsWriter) error
}

// resultsSections is the layout of RESULTS.txt, in order.
var resultsSections = []resultsSection{
	{name: "fig1", write: func(rw *resultsWriter) error { return rw.table(Figure1(), nil) }},
	{name: "table1", write: func(rw *resultsWriter) error { return rw.table(Table1()) }},
	{name: "fig7", write: (*resultsWriter).figure7},
	{name: "fig8", write: (*resultsWriter).figure8},
	{name: "table2", write: func(rw *resultsWriter) error { return rw.tables(Table2Context) }},
	{name: "table3", write: func(rw *resultsWriter) error { return rw.table(Table3(), nil) }},
	{name: "fig9", write: func(rw *resultsWriter) error { return rw.perSide(Figure9TableContext) }},
	{name: "fig10", write: func(rw *resultsWriter) error { return rw.table(Figure10Table()) }},
	{name: "extensions", write: func(rw *resultsWriter) error {
		return rw.tables(
			ExtendedSchemesTableContext,
			L2StudyContext,
			WritebackAblationContext,
			func(ctx context.Context, s *Suite) (*report.Table, error) {
				return TemperatureSweepContext(ctx, s, "gzip")
			},
			PrefetcherQualityTableContext,
			// The geometry sweep re-simulates every configuration; it
			// runs at no more than a quarter scale to keep the full run
			// under a minute.
			func(ctx context.Context, s *Suite) (*report.Table, error) {
				return GeometrySweepContext(ctx, min(s.Scale(), 0.25))
			},
			LiveDeadStudyContext,
			BreakdownTableContext,
		)
	}},
	{name: "profile", write: func(rw *resultsWriter) error { return rw.tables(massProfileTable) }},
	{name: "policies", write: func(rw *resultsWriter) error { return rw.table(PolicyTable(), nil) }},
	{name: "sweep", optIn: true, write: (*resultsWriter).denseSweep},
	{name: "pareto", write: func(rw *resultsWriter) error {
		return rw.perSide(func(ctx context.Context, s *Suite, iCache bool) (*report.Table, error) {
			return s.ParetoTableContext(ctx, iCache, power.Default(), nil)
		})
	}},
	{name: "families", write: func(rw *resultsWriter) error {
		return rw.perSide(func(ctx context.Context, s *Suite, iCache bool) (*report.Table, error) {
			return s.TechniqueFamiliesTableContext(ctx, iCache, power.Default())
		})
	}},
}

// ResultsSections names every section WriteResults can write, in
// RESULTS.txt's order. "sweep" is opt-in: it is written only when named.
func ResultsSections() []string {
	names := make([]string, len(resultsSections))
	for i, sec := range resultsSections {
		names[i] = sec.name
	}
	return names
}

// WriteResults writes the sections named in only to w, in RESULTS.txt's
// order, rendering tables with render; text plots and summary lines are
// text in every format. An empty only writes every section except the
// opt-in ones. An unknown name is rejected before anything is written.
func WriteResults(ctx context.Context, w io.Writer, s *Suite, only []string, render TableRenderer) error {
	names := ResultsSections()
	want := make(map[string]bool, len(only))
	for _, name := range only {
		if !slices.Contains(names, name) {
			return fmt.Errorf("experiments: unknown results section %q (want one of %s)",
				name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	rw := &resultsWriter{ctx: ctx, s: s, w: w, render: render}
	for _, sec := range resultsSections {
		if want[sec.name] || len(want) == 0 && !sec.optIn {
			if err := sec.write(rw); err != nil {
				return err
			}
		}
	}
	return nil
}

// resultsWriter carries one WriteResults call's suite, sink and format.
type resultsWriter struct {
	ctx    context.Context
	s      *Suite
	w      io.Writer
	render TableRenderer
}

// table renders one table in the selected format, then the blank line
// that ends every section. It takes a builder's (table, error) pair whole.
func (rw *resultsWriter) table(t *report.Table, err error) error {
	if err != nil {
		return err
	}
	if err := rw.render(t, rw.w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(rw.w)
	return err
}

// tables renders each suite table in turn.
func (rw *resultsWriter) tables(builds ...func(context.Context, *Suite) (*report.Table, error)) error {
	for _, build := range builds {
		if err := rw.table(build(rw.ctx, rw.s)); err != nil {
			return err
		}
	}
	return nil
}

// perSide renders one table per L1 side, I-cache first.
func (rw *resultsWriter) perSide(build func(context.Context, *Suite, bool) (*report.Table, error)) error {
	for _, iCache := range []bool{true, false} {
		if err := rw.table(build(rw.ctx, rw.s, iCache)); err != nil {
			return err
		}
	}
	return nil
}

// plot renders a text plot, then a blank line.
func (rw *resultsWriter) plot(title, xLabel string, series ...*report.Series) error {
	if err := report.RenderSeries(rw.w, title, xLabel, series...); err != nil {
		return err
	}
	_, err := fmt.Fprintln(rw.w)
	return err
}

func (rw *resultsWriter) figure7() error {
	for _, iCache := range []bool{true, false} {
		sleep, hybrid, err := Figure7Context(rw.ctx, rw.s, iCache)
		if err != nil {
			return err
		}
		if err := rw.plot("Figure 7"+sideTitle(iCache)+": hybrid vs sleep, swept minimum sleep interval",
			"interval", sleep, hybrid); err != nil {
			return err
		}
	}
	return nil
}

// figure8 renders both Figure 8 tables and Prefetch-B's gap to the bound.
func (rw *resultsWriter) figure8() error {
	if err := rw.perSide(Figure8TableContext); err != nil {
		return err
	}
	for _, side := range []struct {
		label  string
		iCache bool
	}{{"I-cache", true}, {"D-cache", false}} {
		pb, opt, gap, err := GapToOptimalContext(rw.ctx, rw.s, side.iCache)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(rw.w, "%s: Prefetch-B %s vs OPT-Hybrid %s (gap %.1f%%)\n",
			side.label, report.Pct(pb), report.Pct(opt), gap*100); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(rw.w)
	return err
}

// denseSweep plots a 256-point theta ladder per L1 side, affordable
// because each benchmark answers the whole ladder in one aggregate-kernel
// pass.
func (rw *resultsWriter) denseSweep() error {
	thetas := GeometricThetas(1057, 103084, 256)
	for _, iCache := range []bool{true, false} {
		series := make([]*report.Series, 0, 2)
		for _, scheme := range []string{"opt-sleep", "opt-hybrid"} {
			pts, err := rw.s.SweepThetaContext(rw.ctx, scheme, iCache, power.Default(), thetas)
			if err != nil {
				return err
			}
			sr := &report.Series{Name: scheme}
			for _, p := range pts {
				sr.Add(float64(p.Theta), p.Savings)
			}
			series = append(series, sr)
		}
		if err := rw.plot("Dense sweep "+sideTitle(iCache)+": savings over 256 theta points",
			"theta", series...); err != nil {
			return err
		}
	}
	return nil
}
