// Command leakbench is leakbound's end-to-end benchmark. Each workload
// drives the program through its public packages the way a user does:
//
//	suite-cold   a cold experiments.Suite simulating every benchmark
//	sweep-dense  dense parameter sweeps and Pareto queries over a warm,
//	             disk-cached suite
//	serve-mix    an open-loop request mix, sent by a load-generator child
//	             process, against an in-process leakaged server on a
//	             loopback listener
//
// Usage:
//
//	leakbench -workload suite-cold -seed 1 -seconds 10 -trace 0
//
// Run it from the repository root (it reads examples/specs). The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. With -trace 0 the metrics are the end-to-end metrics, their
// timings scaled to a reference host's speed by the probe of probe.go;
// with -trace 1 the run records spans around calls into each layer,
// writes them under .bench_build/spans/, and reports the per-layer
// metrics instead. NOTES.md describes every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are reported by every workload's untraced run. What one unit
// of work is differs by workload; NOTES.md gives each definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are reported by every workload's traced run. A layer the
// workload does not measure reads 0.
var perLayer = []metricDef{
	// suite-cold: workload, sim, prefetch + interval, experiments, spec, model.
	{"workload.emit_s", "s"},
	{"workload.instrs", "count"},
	{"sim.cpu_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.cycles", "count"},
	{"sim.l1i_misses", "count"},
	{"sim.l1d_misses", "count"},
	{"sim.l2_misses", "count"},
	{"collect.s", "s"},
	{"collect.ns_per_event", "ns"},
	{"interval.finish_s", "s"},
	{"interval.aggregates_s", "s"},
	{"interval.intervals", "count"},
	{"prefetch.accuracy_i", "fraction"},
	{"prefetch.accuracy_d", "fraction"},
	{"suite.all_s", "s"},
	{"suite.inline_sum_s", "s"},
	{"suite.parallel_eff", "fraction"},
	{"spec.compile_s", "s"},
	{"spec.replay_emit_s", "s"},
	{"model.opt_hybrid_i_pct", "%"},
	{"model.opt_hybrid_d_pct", "%"},
	// sweep-dense: leakage, experiments, report, disk cache.
	{"leakage.evals", "count"},
	{"leakage.kernel_s", "s"},
	{"leakage.ns_per_eval", "ns"},
	{"leakage.allocs_per_eval", "count"},
	{"experiments.sweep_overhead_s", "s"},
	{"experiments.pareto_s", "s"},
	{"report.render_s", "s"},
	{"diskcache.load_s", "s"},
	{"diskcache.hits", "count"},
	// serve-mix: server, spec + sim, load generator.
	{"server.cache_hit_ratio", "fraction"},
	{"server.cache_lookups", "count"},
	{"server.evictions", "count"},
	{"server.not_modified", "count"},
	{"server.coalesced_waits", "count"},
	{"server.leader_runs", "count"},
	{"server.admission_rejects", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.not_modified_p50_ms", "ms"},
	{"server.eval_miss_p50_ms", "ms"},
	{"server.sweep_miss_p50_ms", "ms"},
	{"server.spec_eval_p50_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"suite.adhoc_sims", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.due_p50_ms", "ms"},
	{"loadgen.due_p99_ms", "ms"},
	{"loadgen.requests", "count"},
	{"loadgen.mode_share.eval_hot", "fraction"},
	{"loadgen.mode_share.revalidate", "fraction"},
	{"loadgen.mode_share.eval_miss", "fraction"},
	{"loadgen.mode_share.sweep", "fraction"},
	{"loadgen.mode_share.pareto", "fraction"},
	{"loadgen.mode_share.spec_eval", "fraction"},
	{"loadgen.mode_share.coalesce", "fraction"},
	// every workload: Go runtime over one untraced unit of work, and the
	// cost of tracing itself.
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.mallocs", "count"},
	{"trace.overhead_pct", "%"},
}

// env is what a workload receives: the seed-derived inputs come from seed
// alone.
type env struct {
	seed    uint64
	seconds time.Duration
	root    string // repository root (examples/specs lives under it)
	workers int    // GOMAXPROCS: the suite pool and the connection cap
	rec     *recorder
	probe   *speedProbe // nil in traced runs
	out     io.Writer   // human-readable lines, before the result line

	attempted, failed int64
}

// op counts one attempted operation; a non-nil err marks it failed.
func (e *env) op(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(os.Stderr, "leakbench: operation failed: %v\n", err)
	}
}

// check records an output check on an already-counted operation; a
// failed check marks one more operation failed, capped at attempted.
func (e *env) check(ok bool, format string, args ...any) bool {
	if !ok {
		if e.failed < e.attempted {
			e.failed++
		}
		fmt.Fprintf(os.Stderr, "leakbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// info prints one human-readable metric line.
func (e *env) info(name string, value float64, unit, note string) {
	if note != "" {
		note = "  # " + note
	}
	fmt.Fprintf(e.out, "%-34s %14.6g %s%s\n", name, value, unit, note)
}

type workloadFunc func(ctx context.Context, e *env) (map[string]float64, error)

var workloads = map[string]workloadFunc{
	"suite-cold":  runSuiteCold,
	"sweep-dense": runSweepDense,
	"serve-mix":   runServeMix,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leakbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("leakbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: suite-cold, sweep-dense or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "how long the timed part runs")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := fs.String("root", ".", "repository root")
	fill := fs.String("fill", "", "only fill the sweep-dense disk cache at this directory (the benchmark runs this itself)")
	drive := fs.String("drive", "", "only run the serve-mix load generator against this base URL (the benchmark runs this itself)")
	requests := fs.Int("requests", 0, "with -drive: how many requests the schedule holds")
	closed := fs.Bool("closed", false, "with -drive: closed loop, to measure capacity")
	conns := fs.Int("conns", 1, "with -drive: the connection cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fill != "" {
		return fillCache(context.Background(), *root, *fill, *seed)
	}
	if *drive != "" {
		if *requests < 1 || *conns < 1 || *seconds <= 0 {
			return fmt.Errorf("bad -drive arguments: -requests %d -conns %d -seconds %g", *requests, *conns, *seconds)
		}
		return runGenerator(context.Background(), *root, *drive, *seed, *requests,
			time.Duration(*seconds*float64(time.Second)), *closed, *conns, stdout)
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		return fmt.Errorf("bad -seconds %g", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("bad -trace %d (want 0 or 1)", *traced)
	}
	if _, err := os.Stat(filepath.Join(*root, "examples", "specs")); err != nil {
		return fmt.Errorf("not a leakbound checkout: %w", err)
	}
	// The regression this benchmark exists to show appears only with more
	// than one worker, so run at every CPU the process may use.
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := readHostFacts()
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		root:    *root,
		workers: host.GOMAXPROCS,
		out:     stdout,
	}
	if *traced == 1 {
		e.rec = newRecorder()
	} else {
		e.probe = newSpeedProbe(host.GOMAXPROCS)
	}
	fmt.Fprintf(stdout, "host gomaxprocs=%d nproc=%d go=%s cpu=%q\n",
		host.GOMAXPROCS, host.NumCPU, host.GoVersion, host.CPUModel)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)

	steal0, total0, stealOK := cpuSteal()
	metrics, err := fn(context.Background(), e)
	if err != nil {
		return err
	}
	if steal1, total1, ok := cpuSteal(); stealOK && ok && total1 > total0 {
		fmt.Fprintf(stdout, "host steal_pct=%.1f (CPU time the hypervisor gave elsewhere during this run)\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if e.attempted == 0 {
		return errors.New("no operation attempted")
	}
	defs := endToEnd
	if e.rec != nil {
		defs = perLayer
		path := filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, spanFile{Workload: *name, Seed: *seed, Host: host, Spans: e.rec.snapshot()}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if e.rec == nil {
		if err := checkEndToEnd(metrics); err != nil {
			return fmt.Errorf("workload %s: %w", *name, err)
		}
		e.reportMeasured(metrics)
	}
	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]resultMetric, len(defs))}
	for _, d := range defs {
		v := metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s reported %s = %g", *name, d.Name, v)
		}
		res.Metrics[d.Name] = resultMetric{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for k := range metrics {
		if _, ok := res.Metrics[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("workload %s reported undeclared metrics: %s", *name, strings.Join(unknown, ", "))
	}
	for _, d := range defs {
		e.info(d.Name, res.Metrics[d.Name].Value, d.Unit, "")
	}
	e.info("error_rate", float64(e.failed)/float64(e.attempted), "fraction",
		fmt.Sprintf("%d failed of %d attempted", e.failed, e.attempted))
	res.Correct = e.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkEndToEnd rejects a set of end-to-end figures that lacks one, or
// holds one that is not a positive number. None of them is ever 0 on a
// sound run, and a 0 would read as a 100% gain against a baseline.
func checkEndToEnd(metrics map[string]float64) error {
	for _, d := range endToEnd {
		v, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s not reported", d.Name)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %g, want a positive number", d.Name, v)
		}
	}
	return nil
}

// measuredPrefix marks a workload's figure as measured, before scaling to
// the reference host's speed: it is printed, not reported.
const measuredPrefix = "measured."

// reportMeasured prints the probe's slowdown over the run and every
// measured figure beside the scaled one reported under its name, and
// takes the measured ones out of m.
func (e *env) reportMeasured(m map[string]float64) {
	s, n := e.probe.summary()
	e.info("probe.wall_slowdown", s.Wall, "x", fmt.Sprintf("median of %d samples; reference %g ms", n, probeRefWallMS))
	e.info("probe.cpu_slowdown", s.CPU, "x", fmt.Sprintf("reference %g ms per probe goroutine", probeRefCPUMS))
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, measuredPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.info(k, m[k], "", "as measured; "+strings.TrimPrefix(k, measuredPrefix)+" is scaled to the reference host")
		delete(m, k)
	}
}

// timedLoop runs fn(0), fn(1), ... until e.seconds have elapsed, at least
// once.
func (e *env) timedLoop(fn func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.seconds; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// series is one timing of every unit of work, as measured and as scaled
// to the reference host's speed by the probe samples around the unit.
type series struct{ measured, scaled []float64 }

// addTime adds a duration of a unit the probe found slow times slower.
func (s *series) addTime(v, slow float64) {
	s.measured = append(s.measured, v)
	s.scaled = append(s.scaled, v/slow)
}

// addRate adds a rate of a unit the probe found slow times slower.
func (s *series) addRate(v, slow float64) {
	s.measured = append(s.measured, v)
	s.scaled = append(s.scaled, v*slow)
}

// setMedian reports the scaled median under name and the measured one
// beside it.
func (s *series) setMedian(m map[string]float64, name string) {
	m[name] = median(s.scaled)
	m[measuredPrefix+name] = median(s.measured)
}

// repeatSetup runs setup n times and returns each duration in seconds;
// the last setup's state is the one the caller keeps. Each
// set-up runs between two probe samples and starts from a collected heap,
// as it would in a fresh process.
func (e *env) repeatSetup(n int, setup func() error) (series, error) {
	var ds series
	for i := 0; i < n; i++ {
		var d time.Duration
		var err error
		slow := e.probe.around(func() {
			runtime.GC()
			start := time.Now()
			err = setup()
			d = time.Since(start)
		})
		if err != nil {
			return ds, err
		}
		ds.addTime(d.Seconds(), slow.Wall)
	}
	return ds, nil
}

// tailMetrics fills p50_ms and tail_ms from latencies in ms and prints the
// percentile the tail was taken at, with the sample count.
func (e *env) tailMetrics(m map[string]float64, label string, lat series) {
	t := tailOf(lat.scaled)
	lat.setMedian(m, "p50_ms")
	m["tail_ms"] = t.Value
	m[measuredPrefix+"tail_ms"] = percentile(lat.measured, t.P)
	note := fmt.Sprintf("p%g of %d %s", t.P, t.N, label)
	if !t.Qualified {
		note += "; fewer than 20 samples, so this is the median"
	}
	e.info("tail_ms.percentile", t.P, "%", note)
}
