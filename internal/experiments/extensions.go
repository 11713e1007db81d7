package experiments

// Extension experiments beyond the paper's evaluation, exercising the
// library's generality (the "future work" directions Section 6 gestures
// at): the L2 cache, extra baseline schemes from the related work, the
// dirty-line write-back cost, and temperature sensitivity.
//
// Every policy evaluation here runs on the aggregate kernel over the
// benchmark's cached summaries (IAgg, DAgg, L2Agg). Adaptive decay, AMC
// and the hybrid breakdown have no aggregate form and walk the
// distributions.

import (
	"context"
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

// ExtendedSchemesTable compares the related-work baselines (periodic
// drowsy, feedback-tuned decay, AMC) against the paper's oracle bounds, on
// both caches, at 70nm. This is the comparison Section 2's survey implies
// but the paper never plots.
func ExtendedSchemesTable(s *Suite) (*report.Table, error) {
	return ExtendedSchemesTableContext(context.Background(), s)
}

// ExtendedSchemesTableContext is the cancellable ExtendedSchemesTable.
func ExtendedSchemesTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	t := report.NewTable("Extension: related-work schemes vs the oracle bounds (70nm, benchmark average)",
		"scheme", "I-cache", "D-cache")

	type rowFn func(*interval.Distribution, *interval.Aggregates) (leakage.Evaluation, error)
	kernel := func(p leakage.Policy) rowFn {
		return func(_ *interval.Distribution, agg *interval.Aggregates) (leakage.Evaluation, error) {
			return leakage.EvaluateAggregate(tech, agg, p)
		}
	}
	rows := []struct {
		label string
		fn    rowFn
	}{
		{"Drowsy(2000) periodic", kernel(leakage.PeriodicDrowsy{Window: 2000})},
		{"Drowsy(4000) periodic", kernel(leakage.PeriodicDrowsy{Window: 4000})},
		// Adaptive decay and AMC have no aggregate form: they walk the
		// distribution itself.
		{"Adaptive decay (feedback)", func(d *interval.Distribution, _ *interval.Aggregates) (leakage.Evaluation, error) {
			return leakage.EvaluateAdaptiveDecay(tech, d)
		}},
		{"AMC (tags alive)", func(d *interval.Distribution, _ *interval.Aggregates) (leakage.Evaluation, error) {
			return leakage.EvaluateAMC(tech, d, 0.06)
		}},
		{"OPT-Drowsy (bound)", kernel(leakage.OPTDrowsy{})},
		{"OPT-Hybrid (bound)", kernel(leakage.OPTHybrid{})},
	}
	for _, r := range rows {
		var iSum, dSum float64
		for _, bd := range all {
			iv, err := r.fn(bd.Side(true))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", r.label, bd.Name, err)
			}
			dv, err := r.fn(bd.Side(false))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", r.label, bd.Name, err)
			}
			iSum += iv.Savings
			dSum += dv.Savings
		}
		n := float64(len(all))
		t.MustAddRow(r.label, report.Pct(iSum/n), report.Pct(dSum/n))
	}
	return t, nil
}

// L2Study evaluates the oracle policies on the unified 2MB L2 — a cache
// 32x larger than the L1s whose frames are touched only on L1 misses, so
// nearly all of its (much larger) leakage is recoverable. The paper
// restricts itself to the L1s; this is the natural next target its
// conclusion implies.
func L2Study(s *Suite) (*report.Table, error) {
	return L2StudyContext(context.Background(), s)
}

// L2StudyContext is the cancellable L2Study.
func L2StudyContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	t := report.NewTable("Extension: L2 leakage savings (2MB unified, 70nm)",
		"benchmark", "frames touched", "OPT-Drowsy", "OPT-Sleep(10K)", "OPT-Hybrid")
	policies := []leakage.Policy{
		leakage.OPTDrowsy{},
		leakage.OPTSleep{Theta: 10000},
		leakage.OPTHybrid{},
	}
	var sums [3]float64
	for _, bd := range all {
		cells := []string{bd.Name}
		untouchedMass := bd.L2Cache.MassWhere(func(l uint64, f interval.Flags) bool {
			return f&interval.Untouched == interval.Untouched
		})
		total := bd.L2Cache.Mass()
		frac := 1 - float64(untouchedMass)/float64(total)
		cells = append(cells, report.Pct(frac))
		evs, err := leakage.EvaluateMany(tech, bd.L2Agg, policies)
		if err != nil {
			return nil, err
		}
		for i, ev := range evs {
			cells = append(cells, report.Pct(ev.Savings))
			sums[i] += ev.Savings
		}
		t.MustAddRow(cells...)
	}
	n := float64(len(all))
	t.MustAddRow("average", "-", report.Pct(sums[0]/n), report.Pct(sums[1]/n), report.Pct(sums[2]/n))
	return t, nil
}

// WritebackAblation quantifies the cost the paper leaves unmodelled: a
// dirty line must be written back before it can be gated. The write-back
// energy is swept from zero (the paper's implicit assumption) to the full
// induced-miss energy, and OPT-Hybrid's D-cache savings re-evaluated.
func WritebackAblation(s *Suite) (*report.Table, error) {
	return WritebackAblationContext(context.Background(), s)
}

// WritebackAblationContext is the cancellable WritebackAblation.
func WritebackAblationContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	base := power.Default()
	t := report.NewTable("Extension: write-back cost ablation (OPT-Hybrid, D-cache, 70nm)",
		"WB energy / CD", "average savings", "delta vs free")
	var free float64
	for _, ratio := range []float64{0, 0.25, 0.5, 1.0} {
		tech := base
		tech.WBEnergy = ratio * tech.CD
		var sum float64
		for _, bd := range all {
			ev, err := leakage.EvaluateAggregate(tech, bd.DAgg, leakage.OPTHybrid{})
			if err != nil {
				return nil, err
			}
			sum += ev.Savings
		}
		avg := sum / float64(len(all))
		if ratio == 0 {
			free = avg
		}
		t.MustAddRow(fmt.Sprintf("%.2f", ratio), report.Pct(avg),
			fmt.Sprintf("%+.2f pts", (avg-free)*100))
	}
	return t, nil
}

// TemperatureSweepContext shows how the drowsy-sleep inflection point and
// the oracle savings move with junction temperature: leakage scales
// exponentially with T while the induced-miss energy does not, so hot
// silicon should sleep more aggressively. The paper's generalized model
// exists exactly to answer questions like this. Each temperature point
// evaluates through the aggregate fast path over the benchmark's cached
// summary — the sweep never re-walks the distribution.
func TemperatureSweepContext(ctx context.Context, s *Suite, benchmark string) (*report.Table, error) {
	bd, err := s.DataContext(ctx, benchmark)
	if err != nil {
		return nil, err
	}
	base := power.Default()
	t := report.NewTable(
		fmt.Sprintf("Extension: temperature sensitivity (%s I-cache, 70nm)", benchmark),
		"temp (K)", "P_active scale", "inflection b", "OPT-Hybrid savings")
	for _, temp := range []float64{300, 330, 353, 380, 400} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tech, err := power.TemperatureScaledTechnology(base, temp)
		if err != nil {
			return nil, err
		}
		_, b, err := tech.InflectionPoints()
		if err != nil {
			return nil, err
		}
		ev, err := leakage.EvaluateAggregate(tech, bd.IAgg, leakage.OPTHybrid{})
		if err != nil {
			return nil, err
		}
		t.MustAddRow(
			fmt.Sprintf("%.0f", temp),
			fmt.Sprintf("%.2fx", tech.PActive/base.PActive),
			fmt.Sprintf("%.0f", b),
			report.Pct(ev.Savings),
		)
	}
	return t, nil
}

// PrefetcherQualityTable reports the hardware prefetch engines' coverage
// and accuracy per benchmark — the implementable check of Section 5's
// premise (citing Sair, Sherwood & Calder) that next-line and stride
// prefetching capture most cache misses.
func PrefetcherQualityTable(s *Suite) (*report.Table, error) {
	return PrefetcherQualityTableContext(context.Background(), s)
}

// PrefetcherQualityTableContext is the cancellable PrefetcherQualityTable.
func PrefetcherQualityTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: hardware prefetcher quality (next-line I / next-line+stride D)",
		"benchmark", "I coverage", "I accuracy", "D coverage", "D accuracy")
	var iCov, iAcc, dCov, dAcc float64
	for _, bd := range all {
		t.MustAddRow(bd.Name,
			report.Pct(bd.IEngine.Coverage()), report.Pct(bd.IEngine.Accuracy()),
			report.Pct(bd.DEngine.Coverage()), report.Pct(bd.DEngine.Accuracy()))
		iCov += bd.IEngine.Coverage()
		iAcc += bd.IEngine.Accuracy()
		dCov += bd.DEngine.Coverage()
		dAcc += bd.DEngine.Accuracy()
	}
	n := float64(len(all))
	t.MustAddRow("average", report.Pct(iCov/n), report.Pct(iAcc/n),
		report.Pct(dCov/n), report.Pct(dAcc/n))
	return t, nil
}

// LiveDeadStudy verifies the paper's Section 3.1 claim: "dead periods did
// not contribute a large amount of leakage savings in the optimal case,
// because any long interval would be turned off whether live or dead.
// Thus the only additional savings that are achieved from considering dead
// intervals are from short dead intervals, of which there are very few."
//
// The length-only OPT-Hybrid treats every interior interval identically; a
// dead-aware oracle additionally knows that a dead-ending gap's block is
// never referenced again, so sleeping it incurs no induced-miss energy and
// pays off at much shorter lengths. The delta between the two is exactly
// the savings attributable to live/dead knowledge — per the paper, it
// should be small.
func LiveDeadStudy(s *Suite) (*report.Table, error) {
	return LiveDeadStudyContext(context.Background(), s)
}

// LiveDeadStudyContext is the cancellable LiveDeadStudy.
func LiveDeadStudyContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	t := report.NewTable("Extension: live vs dead intervals (D-cache, 70nm) — Section 3.1's claim",
		"benchmark", "dead mass share", "OPT-Hybrid (length only)", "dead-aware hybrid", "delta")
	policies := []leakage.Policy{leakage.OPTHybrid{}, leakage.DeadAwareHybrid{}}
	for _, bd := range all {
		deadMass := bd.DCache.MassWhere(func(l uint64, f interval.Flags) bool {
			return f&interval.DeadEnd != 0
		})
		share := float64(deadMass) / float64(bd.DCache.Mass())
		evs, err := leakage.EvaluateMany(tech, bd.DAgg, policies)
		if err != nil {
			return nil, err
		}
		lengthOnly, deadAware := evs[0], evs[1]
		t.MustAddRow(bd.Name,
			report.Pct(share),
			report.Pct(lengthOnly.Savings),
			report.Pct(deadAware.Savings),
			fmt.Sprintf("%.2f pts", (deadAware.Savings-lengthOnly.Savings)*100),
		)
	}
	return t, nil
}

// BreakdownTable explains Figure 8's OPT-Hybrid bars: where the residual
// energy goes, per benchmark and cache, in the terms the calibration notes
// use (active mass, drowsy retention, transitions, induced misses,
// residual sleep leakage).
func BreakdownTable(s *Suite) (*report.Table, error) {
	return BreakdownTableContext(context.Background(), s)
}

// BreakdownTableContext is the cancellable BreakdownTable.
func BreakdownTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	t := report.NewTable("Extension: OPT-Hybrid residual energy breakdown (70nm, % of baseline)",
		"benchmark", "cache", "savings", "active", "drowsy", "transitions", "induced miss", "sleep leak")
	for _, bd := range all {
		for _, side := range []struct {
			label string
			dist  *interval.Distribution
		}{{"I", bd.ICache}, {"D", bd.DCache}} {
			br, err := leakage.HybridBreakdown(tech, side.dist)
			if err != nil {
				return nil, err
			}
			t.MustAddRow(bd.Name, side.label,
				report.Pct(br.Savings), report.Pct(br.ActiveShare),
				report.Pct(br.DrowsyShare), report.Pct(br.TransitionShare),
				report.Pct(br.InducedMissShare), report.Pct(br.SleepShare))
		}
	}
	return t, nil
}
