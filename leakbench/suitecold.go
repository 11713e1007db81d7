package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/interval"
	"leakbound/internal/power"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// suiteScale is the workload scale of both batch workloads: long enough
// that every benchmark runs well past the 180nm inflection point, short
// enough that one cold suite run takes about a second on two cores.
const suiteScale = 0.25

// setupReps is how many times a batch workload repeats its set-up;
// setup_s is the median.
const setupReps = 15

// pinnedBuiltinDigest is builtinDigest over the six built-in benchmarks at
// suiteScale. The built-ins take no seed, so it holds for every workload
// seed; a change that alters any simulated statistic changes it.
const pinnedBuiltinDigest = "5523cb93b675f2589e505f7aebc967697bdca9a3d04813cbfbb7ef6e10849bed"

// runSuiteCold times a fresh Suite's AllContext over the six built-ins,
// the example specs and one replayed recording, with no disk cache.
func runSuiteCold(ctx context.Context, e *env) (map[string]float64, error) {
	var set *scenarioSet
	setup, err := e.repeatSetup(setupReps, func() error {
		s, err := buildScenarios(e.root, e.seed, suiteScale)
		set = s
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.rec != nil {
		return traceSuiteCold(ctx, e, set)
	}
	var wallMS, cpuMS, minstrPerS series
	var allocMB []float64
	err = e.timedLoop(func(int) error {
		s, err := newColdSuite(set)
		if err != nil {
			return err
		}
		var all []*experiments.BenchmarkData
		var u usage
		slow := e.probe.around(func() {
			// Each run starts from a collected heap, as a fresh process
			// would.
			runtime.GC()
			mark := markUsage()
			all, err = s.AllContext(ctx)
			u = mark.since()
		})
		e.op(err)
		if err != nil {
			return nil
		}
		e.checkSuite(all)
		var instrs uint64
		for _, d := range all {
			instrs += d.Result.Instructions
		}
		wallMS.addTime(float64(u.Wall.Nanoseconds())/1e6, slow.Wall)
		cpuMS.addTime(float64(u.CPU.Nanoseconds())/1e6, slow.CPU)
		minstrPerS.addRate(float64(instrs)/1e6/u.Wall.Seconds(), slow.Wall)
		allocMB = append(allocMB, float64(u.AllocBytes)/1e6)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(wallMS.scaled) == 0 {
		return nil, fmt.Errorf("every suite run failed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"alloc_mb":    median(allocMB),
		"peak_rss_mb": rss,
	}
	setup.setMedian(m, "setup_s")
	minstrPerS.setMedian(m, "work_per_s")
	cpuMS.setMedian(m, "cpu_ms_per_op")
	e.tailMetrics(m, "cold suite runs", wallMS)
	e.info("sim_minstr_per_s", m["work_per_s"], "Minstr/s", "work_per_s: simulated instructions per host second, scaled to the reference host")
	return m, nil
}

func newColdSuite(set *scenarioSet) (*experiments.Suite, error) {
	return experiments.New(
		experiments.WithScale(suiteScale),
		experiments.WithScenarios(set.scenarios()...),
		experiments.WithMetrics(telemetry.NewRegistry()),
	)
}

// checkSuite checks one cold suite run's products: the built-ins hash to
// the pinned digest and every distribution conserves frame-cycles.
func (e *env) checkSuite(all []*experiments.BenchmarkData) {
	got, err := builtinDigest(all, workload.Names())
	if e.check(err == nil, "digest: %v", err) {
		e.check(got == pinnedBuiltinDigest, "built-in digest %s, pinned %s", got, pinnedBuiltinDigest)
	}
	for _, d := range all {
		if err := conserved(d); !e.check(err == nil, "conservation: %v", err) {
			return
		}
	}
}

// traceSuiteCold is the traced suite-cold run. It times one untraced
// AllContext, then a traced fan-out of DataContext calls over the same
// pool width, then rebuilds each benchmark's single-goroutine pipeline
// from public calls so the time splits by layer.
func traceSuiteCold(ctx context.Context, e *env, set *scenarioSet) (map[string]float64, error) {
	m := make(map[string]float64)
	s, err := newColdSuite(set)
	if err != nil {
		return nil, err
	}
	mark := markUsage()
	all, err := s.AllContext(ctx)
	mem := mark.since()
	untraced := mem.Wall
	e.op(err)
	if err != nil {
		return nil, err
	}
	e.checkSuite(all)
	m["runtime.gc_cycles"] = float64(mem.GCCycles)
	m["runtime.gc_pause_s"] = mem.GCPause.Seconds()
	m["runtime.mallocs"] = float64(mem.Mallocs)

	// Traced fan-out: the same names through a pool as wide as the
	// suite's, each DataContext call its own span.
	ts, err := newColdSuite(set)
	if err != nil {
		return nil, err
	}
	names := ts.BenchmarkNames()
	data := make([]*experiments.BenchmarkData, len(names))
	errs := make([]error, len(names))
	root := e.rec.begin("suite.all", 0, 1)
	parallel(len(names), e.workers, func(i int) {
		sp := e.rec.begin("suite.data/"+names[i], root, 1)
		data[i], errs[i] = ts.DataContext(ctx, names[i])
		e.rec.end(sp)
	})
	e.rec.end(root)
	allS := e.span(root).Seconds()
	e.op(firstErr(errs))
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	m["suite.all_s"] = allS
	m["trace.overhead_pct"] = (allS/untraced.Seconds() - 1) * 100

	var st inlineStats
	for i, name := range names {
		inl, err := st.run(ctx, e, ts, name, name == set.replay.ScenarioName(), int64(i+2))
		e.op(err)
		if err != nil {
			return nil, err
		}
		want, err1 := dataDigest(data[i])
		got, err2 := dataDigest(inl)
		e.check(err1 == nil && err2 == nil && got == want,
			"%s: inline pipeline digest %s, suite %s (%v, %v)", name, got, want, err1, err2)
	}
	st.report(m)
	m["suite.parallel_eff"] = m["suite.inline_sum_s"] / (allS * float64(e.workers))

	// The model's headline numbers: OPT-Hybrid savings averaged over the
	// built-ins, at the default technology.
	tech := power.Default()
	pol, err := experiments.ParsePolicy("opt-hybrid", tech)
	if err != nil {
		return nil, err
	}
	for _, side := range []struct {
		key   string
		iside bool
	}{{"model.opt_hybrid_i_pct", true}, {"model.opt_hybrid_d_pct", false}} {
		var savings []float64
		for _, name := range workload.Names() {
			ev, err := ts.EvaluateCellContext(ctx, name, side.iside, tech, pol)
			if err != nil {
				return nil, err
			}
			savings = append(savings, ev.Savings)
		}
		m[side.key] = sum(savings) / float64(len(savings)) * 100
	}
	e.info("suite.all_s", allS, "s", "base of suite.parallel_eff and of the shares below")
	for _, k := range []string{"workload.emit_s", "sim.cpu_s", "collect.s", "interval.finish_s",
		"interval.aggregates_s", "suite.inline_sum_s"} {
		e.info("share."+k, m[k]/allS*100, "%", "of suite.all_s, single-goroutine time")
	}
	return m, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inlineStats accumulates the per-layer split of the rebuilt pipelines.
type inlineStats struct {
	emit, cpu, collect, finish, aggs, inline, compile, replayEmit time.Duration
	instrs, events, cycles, l1iMiss, l1dMiss, l2Miss, intervals   uint64
	iEng, dEng                                                    prefetch.EngineStats
}

// run rebuilds one benchmark three times under spans: a bare Emit pass,
// the CPU/cache model with a counting sink, and the full in-line pipeline
// (collectors and prefetch engines fused in the sink, as the suite's
// single-worker path does), followed by Finish and the aggregate build.
func (st *inlineStats) run(ctx context.Context, e *env, s *experiments.Suite, name string, replay bool, runID int64) (*experiments.BenchmarkData, error) {
	root := e.rec.begin("inline/"+name, 0, runID)
	defer e.rec.end(root)
	var sc experiments.Scenario
	for _, c := range s.Scenarios() {
		if c.ScenarioName() == name {
			sc = c
		}
	}
	mk := func() (workload.Workload, error) {
		if sc != nil {
			return sc.Workload(suiteScale)
		}
		return workload.New(name, suiteScale)
	}
	newSpan := "workload.new"
	if sc != nil {
		newSpan = "spec.compile"
	}
	sp := e.rec.begin(newSpan, root, runID)
	w, err := mk()
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		st.compile += e.span(sp)
	}

	sp = e.rec.begin("workload.emit", root, runID)
	var n uint64
	w.Emit(func(workload.Instr) bool { n++; return true })
	e.rec.end(sp)
	st.emit += e.span(sp)
	st.instrs += n
	if replay {
		st.replayEmit += e.span(sp)
	}

	if w, err = mk(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		return nil, err
	}
	sp = e.rec.begin("sim.cpu", root, runID)
	var events uint64
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		events += uint64(b.Len())
		return nil
	})
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	st.cpu += e.span(sp)
	st.events += events
	st.cycles += res.Cycles
	st.l1iMiss += res.L1I.Misses
	st.l1dMiss += res.L1D.Misses
	st.l2Miss += res.L2.Misses

	if w, err = mk(); err != nil {
		return nil, err
	}
	p, err := newPipeline()
	if err != nil {
		return nil, err
	}
	sp = e.rec.begin("pipeline.inline", root, runID)
	res, err = cpu.RunStreamContext(ctx, w, p.hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		t0 := time.Now()
		err := p.consume(b)
		st.collect += time.Since(t0)
		return err
	})
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	st.inline += e.span(sp)

	sp = e.rec.begin("interval.finish", root, runID)
	d := &experiments.BenchmarkData{Name: name, Result: res}
	if d.ICache, err = p.iCol.Finish(res.Cycles); err == nil {
		if d.DCache, err = p.dCol.Finish(res.Cycles); err == nil {
			d.L2Cache, err = p.l2Col.Finish(res.Cycles)
		}
	}
	d.IEngine, d.DEngine = p.iEng.Finish(), p.dEng.Finish()
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	st.finish += e.span(sp)

	sp = e.rec.begin("interval.aggregates", root, runID)
	d.IAgg, d.DAgg, d.L2Agg = interval.NewAggregates(d.ICache), interval.NewAggregates(d.DCache), interval.NewAggregates(d.L2Cache)
	e.rec.end(sp)
	st.aggs += e.span(sp)
	st.intervals += d.ICache.NumIntervals() + d.DCache.NumIntervals() + d.L2Cache.NumIntervals()
	addEngine(&st.iEng, d.IEngine)
	addEngine(&st.dEng, d.DEngine)
	return d, nil
}

func (st *inlineStats) report(m map[string]float64) {
	m["workload.emit_s"] = st.emit.Seconds()
	m["workload.instrs"] = float64(st.instrs)
	m["sim.cpu_s"] = (st.cpu - st.emit).Seconds()
	m["sim.ns_per_event"] = float64((st.cpu - st.emit).Nanoseconds()) / float64(st.events)
	m["sim.events"] = float64(st.events)
	m["sim.cycles"] = float64(st.cycles)
	m["sim.l1i_misses"] = float64(st.l1iMiss)
	m["sim.l1d_misses"] = float64(st.l1dMiss)
	m["sim.l2_misses"] = float64(st.l2Miss)
	m["collect.s"] = st.collect.Seconds()
	m["collect.ns_per_event"] = float64(st.collect.Nanoseconds()) / float64(st.events)
	m["interval.finish_s"] = st.finish.Seconds()
	m["interval.aggregates_s"] = st.aggs.Seconds()
	m["interval.intervals"] = float64(st.intervals)
	m["prefetch.accuracy_i"] = st.iEng.Accuracy()
	m["prefetch.accuracy_d"] = st.dEng.Accuracy()
	m["suite.inline_sum_s"] = (st.inline + st.finish + st.aggs).Seconds()
	m["spec.compile_s"] = st.compile.Seconds()
	m["spec.replay_emit_s"] = st.replayEmit.Seconds()
}

func addEngine(dst *prefetch.EngineStats, s prefetch.EngineStats) {
	dst.DemandAccesses += s.DemandAccesses
	dst.DemandMisses += s.DemandMisses
	dst.Issued += s.Issued
	dst.Useful += s.Useful
	dst.Late += s.Late
	dst.Useless += s.Useless
	dst.CoveredMisses += s.CoveredMisses
}

// span returns the duration of a closed span (0 when untraced).
func (e *env) span(id int64) time.Duration {
	if e.rec == nil || id == 0 {
		return 0
	}
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	return e.rec.spans[id-1].Dur()
}

// pipeline is the suite's in-line collection topology built from public
// constructors: the paper's hierarchy, one classifier and prefetch engine
// per L1, and a collector per cache.
type pipeline struct {
	hier              *cache.Hierarchy
	iCol, dCol, l2Col *interval.Collector
	iEng, dEng        *prefetch.Engine
}

func newPipeline() (*pipeline, error) {
	p := &pipeline{}
	var err error
	if p.hier, err = cache.NewHierarchy(cache.AlphaLike()); err != nil {
		return nil, err
	}
	iClass, err := prefetch.NewClassifier(prefetch.ForICache())
	if err != nil {
		return nil, err
	}
	dClass, err := prefetch.NewClassifier(prefetch.ForDCache())
	if err != nil {
		return nil, err
	}
	if p.iEng, err = prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForICache())); err != nil {
		return nil, err
	}
	if p.dEng, err = prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForDCache())); err != nil {
		return nil, err
	}
	if err := p.iEng.ShareStrides(iClass); err != nil {
		return nil, err
	}
	if err := p.dEng.ShareStrides(dClass); err != nil {
		return nil, err
	}
	if p.iCol, err = interval.NewCollector(trace.L1I, uint32(p.hier.L1I().Config().NumLines()), iClass); err != nil {
		return nil, err
	}
	if p.dCol, err = interval.NewCollector(trace.L1D, uint32(p.hier.L1D().Config().NumLines()), dClass); err != nil {
		return nil, err
	}
	if p.l2Col, err = interval.NewCollector(trace.L2, uint32(p.hier.L2().Config().NumLines()), nil); err != nil {
		return nil, err
	}
	return p, nil
}

// consume dispatches one batch's events to their cache's collector and
// engine.
func (p *pipeline) consume(b *stream.Batch) error {
	for i, n := 0, b.Len(); i < n; i++ {
		cycle, lineAddr, pc := b.Cycles[i], b.LineAddrs[i], b.PCs[i]
		frame, kind, miss := b.Frames[i], b.Kinds[i], b.Misses[i]
		switch b.Caches[i] {
		case trace.L1I:
			if err := p.iCol.AddCols(cycle, lineAddr, pc, frame, trace.L1I, kind, miss); err != nil {
				return err
			}
			p.iEng.AccessCols(cycle, lineAddr, pc, kind, miss)
		case trace.L1D:
			if err := p.dCol.AddCols(cycle, lineAddr, pc, frame, trace.L1D, kind, miss); err != nil {
				return err
			}
			p.dEng.AccessCols(cycle, lineAddr, pc, kind, miss)
		case trace.L2:
			if err := p.l2Col.AddCols(cycle, lineAddr, pc, frame, trace.L2, kind, miss); err != nil {
				return err
			}
		}
	}
	return nil
}
