package experiments

// Cache-geometry sensitivity: the paper fixes the 64KB 2-way L1s of the
// Alpha 21264; this extension re-runs the limit study across L1 sizes and
// associativities to show how the bound moves with geometry — bigger
// caches idle more of their frames, so the recoverable fraction grows,
// which is the structural reason leakage management matters more as
// caches grow.

import (
	"context"
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// SimulateCustom runs one benchmark on an arbitrary hierarchy and returns
// the flagged interval distribution of the selected cache. It exists for
// geometry sweeps and one-off studies outside the fixed-config Suite. It
// is SimulateCustomContext with a background context.
func SimulateCustom(name string, scale float64, hc cache.HierarchyConfig, side trace.CacheID) (*interval.Distribution, cpu.Result, error) {
	return SimulateCustomContext(context.Background(), name, scale, hc, side)
}

// SimulateCustomContext is the cancellable SimulateCustom.
func SimulateCustomContext(ctx context.Context, name string, scale float64, hc cache.HierarchyConfig, side trace.CacheID) (*interval.Distribution, cpu.Result, error) {
	w, err := workload.New(name, scale)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	hier, err := cache.NewHierarchy(hc)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	target := hier.CacheByID(side)
	if target == nil {
		return nil, cpu.Result{}, fmt.Errorf("experiments: invalid cache side %v", side)
	}
	col, err := interval.NewCollector(side, uint32(target.Config().NumLines()), nil)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	var sinkErr error
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), cpu.EachEvent(func(e trace.Event) {
		if sinkErr == nil && e.Cache == side {
			sinkErr = col.Add(e)
		}
	}))
	if err != nil {
		return nil, cpu.Result{}, err
	}
	if sinkErr != nil {
		return nil, cpu.Result{}, sinkErr
	}
	dist, err := col.Finish(res.Cycles)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	return dist, res, nil
}

// GeometryPoint describes one swept configuration.
type GeometryPoint struct {
	SizeKB int
	Assoc  int
}

// GeometrySweepPoints returns the swept L1 configurations: the paper's
// 64KB/2-way plus half, quarter, double sizes and a 4-way variant.
func GeometrySweepPoints() []GeometryPoint {
	return []GeometryPoint{
		{16, 2}, {32, 2}, {64, 2}, {128, 2}, {64, 4},
	}
}

// GeometrySweepContext evaluates OPT-Hybrid and Sleep(10K) on the D-cache
// across L1 geometries, averaged over the benchmark suite at the given
// scale. Each simulated distribution is aggregated once and both policies
// are answered in one leakage.EvaluateMany pass.
func GeometrySweepContext(ctx context.Context, scale float64) (*report.Table, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrNonPositiveScale, scale)
	}
	tech := power.Default()
	pols := []leakage.Policy{leakage.OPTHybrid{}, leakage.SleepDecay{Theta: 10000}}
	t := report.NewTable("Extension: L1 D-cache geometry sweep (70nm, benchmark average)",
		"L1 size", "assoc", "frames", "OPT-Hybrid", "Sleep(10K)")
	for _, pt := range GeometrySweepPoints() {
		hc := cache.AlphaLike()
		hc.L1D.SizeBytes = pt.SizeKB << 10
		hc.L1D.Assoc = pt.Assoc
		hc.L1I.SizeBytes = pt.SizeKB << 10
		hc.L1I.Assoc = pt.Assoc
		var hySum, dcSum float64
		var frames int
		for _, name := range workload.Names() {
			dist, _, err := SimulateCustomContext(ctx, name, scale, hc, trace.L1D)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s at %dKB/%d-way: %w", name, pt.SizeKB, pt.Assoc, err)
			}
			frames = int(dist.NumFrames)
			evs, err := leakage.EvaluateMany(tech, interval.NewAggregates(dist), pols)
			if err != nil {
				return nil, err
			}
			hySum += evs[0].Savings
			dcSum += evs[1].Savings
		}
		n := float64(len(workload.Names()))
		t.MustAddRow(
			fmt.Sprintf("%dKB", pt.SizeKB),
			fmt.Sprintf("%d", pt.Assoc),
			fmt.Sprintf("%d", frames),
			report.Pct(hySum/n),
			report.Pct(dcSum/n),
		)
	}
	return t, nil
}
