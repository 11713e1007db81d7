package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/telemetry"
)

// ladderPoints is the dense-sweep ladder length: the server's own cap on
// one sweep, so every sweep here is one a user could ask for.
const ladderPoints = 256

// family is a registered policy scheme with a numeric positional
// parameter, and the seeded ladder it is swept over.
type family struct {
	scheme, param string
	values        []leakage.ParamValue
}

// sweepFamilies returns every registered family with a declared numeric
// positional parameter, each with a ladder derived from seed.
func sweepFamilies(seed uint64) []family {
	var out []family
	for i, reg := range leakage.DefaultRegistry().Schemes() {
		if reg.Positional == "" {
			continue
		}
		sch, ok := reg.Schema(reg.Positional)
		if !ok || (sch.Kind != leakage.UintParam && sch.Kind != leakage.FloatParam) {
			continue
		}
		rng := rand.New(rand.NewPCG(seed, subSeed(seed, streamLadder, i)))
		out = append(out, family{scheme: reg.Name, param: reg.Positional, values: ladder(sch, rng)})
	}
	return out
}

// ladder returns ladderPoints distinct, ascending values for one
// parameter: accuracies spread over [0, 1], color counts 1..256 (the
// default frame count is 1024), and cycle thresholds spread geometrically
// from 16 to about 4M cycles, each jittered within its step.
func ladder(sch leakage.ParamSchema, rng *rand.Rand) []leakage.ParamValue {
	out := make([]leakage.ParamValue, ladderPoints)
	for i := range out {
		switch {
		case sch.Kind == leakage.FloatParam:
			out[i] = leakage.Float((float64(i) + rng.Float64()) / ladderPoints)
		case sch.Name == "colors":
			out[i] = leakage.Uint(uint64(i + 1))
		default:
			lo := 16 * math.Pow(2, 18*float64(i)/ladderPoints)
			hi := 16 * math.Pow(2, 18*float64(i+1)/ladderPoints)
			out[i] = leakage.Uint(uint64(lo + rng.Float64()*(hi-lo-1)))
		}
	}
	return out
}

// sweepQuery is one timed call of a pass.
type sweepQuery struct {
	kind  string // "sweep", "pareto" or "table"
	fam   *family
	side  bool
	tech  power.Technology
	evals int
}

// passQueries lists one pass: for both L1 sides and every technology,
// a dense sweep per family, a Pareto frontier, and a Pareto table
// rendered as JSON.
func passQueries(fams []family, nbench int) []sweepQuery {
	nspecs := len(experiments.DefaultParetoSpecs())
	var qs []sweepQuery
	for _, side := range []bool{true, false} {
		for _, tech := range power.Technologies() {
			for i := range fams {
				qs = append(qs, sweepQuery{kind: "sweep", fam: &fams[i], side: side, tech: tech,
					evals: len(fams[i].values) * nbench})
			}
			qs = append(qs,
				sweepQuery{kind: "pareto", side: side, tech: tech, evals: nspecs * nbench},
				sweepQuery{kind: "table", side: side, tech: tech, evals: nspecs * nbench})
		}
	}
	return qs
}

// sweepState is a loaded suite and the results of the latest pass.
type sweepState struct {
	suite  *experiments.Suite
	all    []*experiments.BenchmarkData
	fams   []family
	qs     []sweepQuery
	sweeps map[*sweepQuery][]experiments.ParamSweepPoint
}

// runSweepDense times dense sweeps and Pareto queries over a suite loaded
// from a disk cache this run filled beforehand. Loading is the set-up.
func runSweepDense(ctx context.Context, e *env) (map[string]float64, error) {
	set, err := buildScenarios(e.root, e.seed, suiteScale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.root, ".bench_build", "diskcache", fmt.Sprintf("seed%d-pid%d", e.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// A child process fills the cache, so this process's peak resident
	// set and allocation figures cover only the load and the queries.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fill := exec.CommandContext(ctx, self, "-fill", dir, "-seed", fmt.Sprint(e.seed), "-root", e.root)
	fill.Stdout, fill.Stderr = os.Stderr, os.Stderr
	if err := fill.Run(); err != nil {
		return nil, fmt.Errorf("filling the disk cache: %w", err)
	}

	st := &sweepState{fams: sweepFamilies(e.seed)}
	var hits uint64
	setup, err := e.repeatSetup(setupReps, func() error {
		reg := telemetry.NewRegistry()
		s, err := experiments.New(experiments.WithScale(suiteScale), experiments.WithScenarios(set.scenarios()...),
			experiments.WithCacheDir(dir), experiments.WithMetrics(reg))
		if err != nil {
			return err
		}
		sp := e.rec.begin("diskcache.load", 0, 0)
		all, err := s.AllContext(ctx)
		e.rec.end(sp)
		e.op(err)
		if err != nil {
			return err
		}
		e.checkSuite(all)
		dc := reg.Snapshot()["diskcache"].Counters
		hits = dc["hits"]
		e.check(hits == uint64(len(all)) && dc["misses"] == 0,
			"disk cache load: %d hits, %d misses for %d benchmarks", hits, dc["misses"], len(all))
		st.suite, st.all = s, all
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.qs = passQueries(st.fams, len(st.all))
	var evalsPerPass int
	for _, q := range st.qs {
		evalsPerPass += q.evals
	}
	if e.rec != nil {
		m, err := traceSweepDense(ctx, e, st, evalsPerPass)
		if err != nil {
			return nil, err
		}
		m["diskcache.load_s"] = median(setup.measured)
		m["diskcache.hits"] = float64(hits)
		return m, nil
	}

	var latMS, cpuMS, evalsPerS series
	var allocMB []float64
	err = e.timedLoop(func(pass int) error {
		var lat []float64
		var u usage
		var perr error
		slow := e.probe.around(func() {
			// Each pass starts from a collected heap, so one pass's
			// garbage is not collected on the next one's time.
			runtime.GC()
			mark := markUsage()
			lat, perr = st.pass(ctx, e, nil, 0)
			u = mark.since()
		})
		if perr != nil {
			return perr
		}
		for _, l := range lat {
			latMS.addTime(l, slow.Wall)
		}
		cpuMS.addTime(float64(u.CPU.Nanoseconds())/1e6, slow.CPU)
		evalsPerS.addRate(float64(evalsPerPass)/u.Wall.Seconds(), slow.Wall)
		allocMB = append(allocMB, float64(u.AllocBytes)/1e6)
		st.checkSample(e, pass)
		return nil
	})
	if err != nil {
		return nil, err
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
	evalsPerS.setMedian(m, "work_per_s")
	cpuMS.setMedian(m, "cpu_ms_per_op")
	e.tailMetrics(m, "sweep and Pareto queries", latMS)
	e.info("evals_per_s", m["work_per_s"], "evals/s",
		fmt.Sprintf("work_per_s: policy evaluations per host second, scaled to the reference host; %d per pass", evalsPerPass))
	return m, nil
}

// fillCache simulates the sweep-dense suite into a disk cache at dir.
func fillCache(ctx context.Context, root, dir string, seed uint64) error {
	set, err := buildScenarios(root, seed, suiteScale)
	if err != nil {
		return err
	}
	s, err := experiments.New(experiments.WithScale(suiteScale), experiments.WithScenarios(set.scenarios()...),
		experiments.WithCacheDir(dir), experiments.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return err
	}
	_, err = s.AllContext(ctx)
	return err
}

// pass runs every query once and returns each query's latency in ms.
// With a recorder each query is a span under root.
func (st *sweepState) pass(ctx context.Context, e *env, rec *recorder, root int64) ([]float64, error) {
	st.sweeps = make(map[*sweepQuery][]experiments.ParamSweepPoint)
	lat := make([]float64, 0, len(st.qs))
	for i := range st.qs {
		q := &st.qs[i]
		start := time.Now()
		var err error
		switch q.kind {
		case "sweep":
			sp := rec.begin("experiments.sweep", root, 1)
			st.sweeps[q], err = st.suite.SweepParamContext(ctx, q.fam.scheme, q.fam.param, q.side, q.tech, q.fam.values)
			rec.end(sp)
			if err == nil {
				e.check(len(st.sweeps[q]) == len(q.fam.values), "%s sweep returned %d points, want %d",
					q.fam.scheme, len(st.sweeps[q]), len(q.fam.values))
			}
		case "pareto":
			sp := rec.begin("experiments.pareto", root, 1)
			var pts []experiments.ParetoPoint
			pts, err = st.suite.ParetoFrontierContext(ctx, q.side, q.tech, nil)
			rec.end(sp)
			if err == nil {
				e.check(frontierNonEmpty(pts), "pareto frontier for %s is empty", q.tech.Name)
			}
		case "table":
			sp := rec.begin("experiments.pareto", root, 1)
			t, terr := st.suite.ParetoTableContext(ctx, q.side, q.tech, nil)
			rec.end(sp)
			err = terr
			if err == nil {
				sp = rec.begin("report.render", root, 1)
				err = t.RenderJSON(io.Discard)
				rec.end(sp)
			}
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
		e.op(err)
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}

func frontierNonEmpty(pts []experiments.ParetoPoint) bool {
	for _, p := range pts {
		if p.Frontier {
			return true
		}
	}
	return false
}

// checkSampleSize is how many sweep points each pass checks against the
// reference evaluator.
const checkSampleSize = 4

// checkSample compares a seeded sample of the last pass's sweep points
// with the reference leakage.Evaluate, per benchmark to rel 1e-9 in
// energy, and averaged to 1e-9 in savings.
func (st *sweepState) checkSample(e *env, pass int) {
	var sweeps []*sweepQuery
	for i := range st.qs {
		if st.qs[i].kind == "sweep" {
			sweeps = append(sweeps, &st.qs[i])
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, subSeed(e.seed, streamCheck, pass)))
	for k := 0; k < checkSampleSize; k++ {
		q := sweeps[rng.IntN(len(sweeps))]
		vi := rng.IntN(len(q.fam.values))
		pol, err := experiments.BuildPolicy(leakage.PolicySpec{Scheme: q.fam.scheme,
			Params: leakage.Params{q.fam.param: q.fam.values[vi]}}, q.tech)
		if !e.check(err == nil, "building %s: %v", q.fam.scheme, err) {
			continue
		}
		var refSavings float64
		for _, bd := range st.all {
			dist, agg := bd.Side(q.side)
			ref, err1 := leakage.Evaluate(q.tech, dist, pol)
			fast, err2 := leakage.EvaluateAggregate(q.tech, agg, pol)
			if !e.check(err1 == nil && err2 == nil && relClose(fast.Energy, ref.Energy, 1e-9),
				"%s %s/%s: fast-path energy %v, reference %v (%v, %v)",
				pol.Name(), bd.Name, q.tech.Name, fast.Energy, ref.Energy, err1, err2) {
				return
			}
			refSavings += ref.Savings
		}
		refSavings /= float64(len(st.all))
		got := st.sweeps[q][vi].Savings
		e.check(math.Abs(got-refSavings) <= 1e-9*math.Max(1, math.Abs(refSavings)),
			"%s@%v %s: sweep savings %v, reference %v", q.fam.scheme, q.fam.values[vi], q.tech.Name, got, refSavings)
	}
}

// traceSweepDense runs one untraced pass, one traced pass, and the
// policy kernel alone over the same ladders and aggregates, in a pool as
// wide as the suite's, so the sweep's own overhead can be separated.
func traceSweepDense(ctx context.Context, e *env, st *sweepState, evalsPerPass int) (map[string]float64, error) {
	m := make(map[string]float64)
	runtime.GC()
	mark := markUsage()
	if _, err := st.pass(ctx, e, nil, 0); err != nil {
		return nil, err
	}
	mem := mark.since()
	untraced := mem.Wall
	st.checkSample(e, 0)
	m["runtime.gc_cycles"] = float64(mem.GCCycles)
	m["runtime.gc_pause_s"] = mem.GCPause.Seconds()
	m["runtime.mallocs"] = float64(mem.Mallocs)

	runtime.GC()
	root := e.rec.begin("pass", 0, 1)
	if _, err := st.pass(ctx, e, e.rec, root); err != nil {
		return nil, err
	}
	e.rec.end(root)
	m["trace.overhead_pct"] = (e.span(root).Seconds()/untraced.Seconds() - 1) * 100

	// The kernel alone: policies built beforehand, then EvaluateMany per
	// benchmark through a pool, as SweepParamContext fans out.
	runtime.GC()
	kroot := e.rec.begin("kernel", 0, 2)
	var evals int
	var kernel time.Duration
	var mallocs uint64
	for i := range st.qs {
		q := &st.qs[i]
		if q.kind != "sweep" {
			continue
		}
		pols := make([]leakage.Policy, len(q.fam.values))
		for vi, v := range q.fam.values {
			pol, err := experiments.BuildPolicy(leakage.PolicySpec{Scheme: q.fam.scheme, Params: leakage.Params{q.fam.param: v}}, q.tech)
			if err != nil {
				return nil, err
			}
			pols[vi] = pol
		}
		errs := make([]error, len(st.all))
		km := markUsage()
		sp := e.rec.begin("leakage.kernel", kroot, 2)
		parallel(len(st.all), e.workers, func(bi int) {
			_, agg := st.all[bi].Side(q.side)
			_, errs[bi] = leakage.EvaluateMany(q.tech, agg, pols)
		})
		e.rec.end(sp)
		mallocs += km.since().Mallocs
		kernel += e.span(sp)
		evals += len(pols) * len(st.all)
		e.op(firstErr(errs))
	}
	e.rec.end(kroot)

	dur, _ := totals(e.rec.snapshot())
	m["leakage.evals"] = float64(evals)
	m["leakage.kernel_s"] = kernel.Seconds()
	m["leakage.ns_per_eval"] = float64(kernel.Nanoseconds()) / float64(evals)
	m["leakage.allocs_per_eval"] = float64(mallocs) / float64(evals)
	m["experiments.sweep_overhead_s"] = (dur["experiments.sweep"] - kernel).Seconds()
	m["experiments.pareto_s"] = dur["experiments.pareto"].Seconds()
	m["report.render_s"] = dur["report.render"].Seconds()
	e.info("pass_s", e.span(root).Seconds(), "s", fmt.Sprintf("traced pass, %d evaluations", evalsPerPass))
	return m, nil
}

// parallel calls fn(0..n-1) on at most workers goroutines and waits.
func parallel(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
