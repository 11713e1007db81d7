// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale f] [-workers n] [-timeout d] [-only item[,item...]]
//	            [-specs dir]
//
// where item is one of: fig1, table1, table2, table3, fig7, fig8, fig9,
// fig10, profile, extensions, policies, pareto, families, sweep; an
// unknown item is an error. With no -only, everything is produced in
// paper order followed by the extension studies, exactly as checked in
// as RESULTS.txt; "policies" prints the registered-scheme catalog,
// "pareto" the (normalized leakage, induced miss rate) frontier per cache
// side, "families" the related-work technique families against the
// bound, and "sweep" (opt-in only, never in the default run) a 256-point
// dense theta sweep per cache side through the aggregate evaluation
// kernel.
// -specs loads a directory of declarative workload specs (.json) and
// recorded traces (.trc) as extra benchmarks evaluated alongside the
// built-in six in every table, sweep, and frontier.
// -scale stretches the benchmark lengths (1.0 = the full study length);
// -workers bounds the parallel pipeline (benchmark fan-out and
// evaluation-grid workers; 0 = GOMAXPROCS);
// -timeout aborts the whole run after a duration. Ctrl-C (SIGINT/SIGTERM)
// cancels cleanly: in-flight simulations stop at their next cancellation
// check and partial telemetry is still flushed.
//
// Observability: -metrics prints a telemetry snapshot (per-benchmark
// simulation time, event counts, disk-cache hits/misses, pool utilization)
// to stderr after the run; -cpuprofile/-memprofile write pprof profiles;
// -metrics-addr serves /metrics, expvar and pprof over HTTP for long
// sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"leakbound/internal/experiments"
	"leakbound/internal/report"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale, "workload scale (1.0 = full study length)")
	workers := flag.Int("workers", 0, "parallelism bound: benchmark fan-out and grid workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(experiments.ResultsSections(), ","))
	cacheDir := flag.String("cache", "", "directory for on-disk simulation caching (empty = off)")
	specsDir := flag.String("specs", "", "directory of workload specs (.json) and recordings (.trc) to evaluate alongside the built-in benchmarks")
	format := flag.String("format", "text", "output format: text, markdown, or csv")
	obs := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stop, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = run(ctx, os.Stdout, *scale, *workers, *only, *cacheDir, *specsDir, *format)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "experiments: aborted:", err)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, scale float64, workers int, only, cacheDir, specsDir, format string) error {
	var render experiments.TableRenderer
	switch format {
	case "text":
		render = (*report.Table).Render
	case "markdown":
		render = (*report.Table).RenderMarkdown
	case "csv":
		render = (*report.Table).RenderCSV
	default:
		return fmt.Errorf("unknown -format %q (want text, markdown, or csv)", format)
	}
	opts := []experiments.Option{
		experiments.WithScale(scale),
		experiments.WithWorkers(workers),
		experiments.WithCacheDir(cacheDir),
	}
	if specsDir != "" {
		srcs, err := spec.LoadDir(specsDir)
		if err != nil {
			return err
		}
		scs := make([]experiments.Scenario, len(srcs))
		for i, src := range srcs {
			scs[i] = src
		}
		opts = append(opts, experiments.WithScenarios(scs...))
	}
	suite, err := experiments.New(opts...)
	if err != nil {
		return err
	}
	var sections []string
	for _, item := range strings.Split(only, ",") {
		if item = strings.TrimSpace(item); item != "" {
			sections = append(sections, item)
		}
	}
	return experiments.WriteResults(ctx, out, suite, sections, render)
}
