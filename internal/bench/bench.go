// Package bench implements the repo's benchmark snapshot discipline: it
// parses `go test -bench -benchmem` output into a stable JSON schema
// (BENCH_<date>[_label].json at the repo root), and compares a fresh run
// against a committed baseline so performance claims are made against
// numbers in the tree, not prose in a PR description.
//
// The schema records, per benchmark: ns/op, B/op, allocs/op, and any
// custom metrics ReportMetric emitted, plus enough host metadata (go
// version, GOMAXPROCS, CPU model) for a comparator to decide which
// dimensions are portable. Allocations per op are hardware-independent —
// a regression there is a regression on every machine — while ns/op is
// only comparable between identical hosts, so Compare demotes timing
// deltas to warnings when the CPU differs.
package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements at one GOMAXPROCS setting.
type Result struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped
	// (the suffix is recorded in Procs).
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at: the -N name suffix,
	// or 1 when there is none (`go test` omits the suffix at 1). A run
	// with -cpu 1,2 yields one Result per setting. Snapshots written
	// before the field existed omit it; their results ran at
	// Host.GOMAXPROCS (see Snapshot.Key).
	Procs int `json:"procs,omitempty"`
	// Iterations is the b.N the harness settled on.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline wall-clock cost.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (e.g. "instr/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Host describes the machine a snapshot was taken on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Snapshot is one committed BENCH_*.json: a benchmark run frozen in time.
type Snapshot struct {
	// SchemaVersion guards future format changes.
	SchemaVersion int `json:"schema_version"`
	// Date is the YYYY-MM-DD the snapshot was taken (from the filename
	// discipline, supplied by the harness — not read from a clock here).
	Date string `json:"date"`
	// Label distinguishes multiple snapshots on one day and sorts after
	// the date (e.g. "r1-materialized", "r2-streaming").
	Label string `json:"label,omitempty"`
	// Commit is the abbreviated git revision, if the harness knew it.
	Commit  string   `json:"commit,omitempty"`
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}

// SchemaVersion is the current snapshot format version.
const SchemaVersion = 1

// ErrNoBenchmarks reports parse input with no benchmark lines at all —
// almost always a harness wiring bug worth failing loudly on.
var ErrNoBenchmarks = errors.New("bench: no benchmark result lines in input")

// RunOutput is everything Parse extracts from one `go test -bench` run:
// the results plus the host hints the test binary printed in its
// preamble (cpu:, goos:, goarch:) and the largest GOMAXPROCS suffix of
// the benchmark names (0 when no name carries one).
type RunOutput struct {
	Results    []Result
	CPU        string
	GOOS       string
	GOARCH     string
	GOMAXPROCS int
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSuiteAll-4   3  1680533621 ns/op  249670440 B/op  97577 allocs/op
//
// The tail pairs (value unit) are split generically so custom
// ReportMetric units survive.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-(\d+))?\s+(\d+)\s+(.*)$`)

// Parse reads `go test -bench -benchmem` output and extracts results and
// host hints. Lines that are not benchmark results (PASS, test logs) are
// ignored. Results are keyed by (name, GOMAXPROCS): the rows of a -cpu
// 1,2 run stay separate, so a multi-core regression cannot hide behind
// the single-core number. Repeated runs of one key (-count>1) fold into
// each dimension's minimum — best-of-N, the standard benchmark noise filter:
// scheduler preemption, GC pauses and pool-goroutine wakeups only ever
// add time and allocations, so the minimum is the least-contaminated
// sample of what the code itself costs. Custom ReportMetric values keep
// their average, since their direction of "better" is unknown here.
func Parse(r io.Reader) (*RunOutput, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	type key struct {
		name  string
		procs int
	}
	out := &RunOutput{}
	order := []key{}
	acc := map[key]*Result{}
	counts := map[key]int64{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[3] != "" {
			p, err := strconv.Atoi(m[3])
			if err != nil {
				continue
			}
			procs = p
			out.GOMAXPROCS = max(out.GOMAXPROCS, p)
		}
		iters, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: m[1], Procs: procs, Iterations: iters}
		if err := parseMeasurements(m[5], &res); err != nil {
			return nil, fmt.Errorf("bench: line %q: %w", sc.Text(), err)
		}
		k := key{res.Name, procs}
		if prev, ok := acc[k]; ok {
			mergeBest(prev, &res, counts[k])
			counts[k]++
			continue
		}
		order = append(order, k)
		r := res
		acc[k] = &r
		counts[k] = 1
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, ErrNoBenchmarks
	}
	for _, k := range order {
		out.Results = append(out.Results, *acc[k])
	}
	return out, nil
}

// Key names r the way `go test` prints it: Name, plus -N when r ran at
// GOMAXPROCS N other than 1. Results without Procs (snapshots written
// before the field existed) ran at the snapshot host's GOMAXPROCS. Key is
// the identity Compare and coverage checks match rows by.
func (s *Snapshot) Key(r *Result) string {
	procs := r.Procs
	if procs == 0 {
		procs = s.Host.GOMAXPROCS
	}
	if procs <= 1 {
		return r.Name
	}
	return fmt.Sprintf("%s-%d", r.Name, procs)
}

// parseMeasurements splits the "<value> <unit> <value> <unit> ..." tail.
func parseMeasurements(tail string, res *Result) error {
	fields := strings.Fields(tail)
	if len(fields)%2 != 0 {
		return fmt.Errorf("odd measurement field count %d", len(fields))
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("bad measurement value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		case "MB/s":
			// Throughput is derivable from ns/op; keep it as a metric.
			fallthrough
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return nil
}

// mergeBest folds sample `next` into `into`, which already aggregates n
// samples: minimum for the core dimensions, running average for custom
// metrics.
func mergeBest(into *Result, next *Result, n int64) {
	into.NsPerOp = min(into.NsPerOp, next.NsPerOp)
	into.BytesPerOp = min(into.BytesPerOp, next.BytesPerOp)
	into.AllocsPerOp = min(into.AllocsPerOp, next.AllocsPerOp)
	into.Iterations += next.Iterations
	w := float64(n)
	for k, v := range next.Metrics {
		if into.Metrics == nil {
			into.Metrics = map[string]float64{}
		}
		into.Metrics[k] = (into.Metrics[k]*w + v) / (w + 1)
	}
}

// Severity classifies one comparison row.
type Severity int

const (
	// OK: within thresholds (or an improvement).
	OK Severity = iota
	// Warn: a regression on a dimension that is not portable across the
	// baseline and current hosts (ns/op with differing CPUs), or a
	// benchmark present on only one side.
	Warn
	// Fail: a regression the gate must block on.
	Fail
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Fail:
		return "FAIL"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Delta is one benchmark's baseline-vs-current comparison.
type Delta struct {
	// Name is the row's Snapshot.Key, e.g. "BenchmarkSuiteAll-2".
	Name     string
	Severity Severity
	// Reason is empty for OK rows.
	Reason string
	// NsRatio and AllocRatio are current/baseline (1.0 = unchanged;
	// 0 when the benchmark is missing on either side).
	NsRatio    float64
	AllocRatio float64
	Base, Cur  *Result
}

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// NsThreshold is the fractional ns/op regression tolerated before the
	// row fails (0.20 = +20%). Zero means the default 0.20.
	NsThreshold float64
	// AllocThreshold is the fractional allocs/op regression tolerated.
	// Allocation counts are near-deterministic, but map growth and pool
	// scheduling wiggle by a few percent; default 0.02.
	AllocThreshold float64
	// WarnOnly demotes every Fail to Warn (the gate reports but passes).
	WarnOnly bool
}

func (o CompareOptions) nsThreshold() float64 {
	if o.NsThreshold == 0 {
		return 0.20
	}
	return o.NsThreshold
}

func (o CompareOptions) allocThreshold() float64 {
	if o.AllocThreshold == 0 {
		return 0.02
	}
	return o.AllocThreshold
}

// Compare evaluates current against base row by row, matching rows by
// Snapshot.Key — benchmark name and GOMAXPROCS.
//
// Gate policy: an allocs/op regression beyond the tolerance always fails
// (allocation counts do not depend on the host), an ns/op regression
// beyond the threshold fails only when both snapshots come from the same
// CPU model — otherwise the timing row is a warning, because comparing
// wall-clock across different machines (a laptop baseline vs a CI
// runner) would gate PRs on hardware, not code. A new benchmark with no
// baseline warns; a baseline benchmark missing from the current run
// fails (WarnOnly demotes it like any other failure) — a dropped bench
// must update the baseline, not silently leave the gate.
func Compare(base, current *Snapshot, opts CompareOptions) []Delta {
	sameCPU := base.Host.CPU != "" && base.Host.CPU == current.Host.CPU
	baseBy := map[string]*Result{}
	for i := range base.Results {
		baseBy[base.Key(&base.Results[i])] = &base.Results[i]
	}
	curSeen := map[string]bool{}
	var deltas []Delta
	for i := range current.Results {
		cur := &current.Results[i]
		name := current.Key(cur)
		curSeen[name] = true
		b, ok := baseBy[name]
		if !ok {
			deltas = append(deltas, Delta{
				Name: name, Severity: Warn, Cur: cur,
				Reason: "new benchmark (no baseline)",
			})
			continue
		}
		d := Delta{Name: name, Base: b, Cur: cur}
		if b.NsPerOp > 0 {
			d.NsRatio = cur.NsPerOp / b.NsPerOp
		}
		if b.AllocsPerOp > 0 {
			d.AllocRatio = cur.AllocsPerOp / b.AllocsPerOp
		} else if cur.AllocsPerOp == 0 {
			d.AllocRatio = 1
		}
		switch {
		case b.AllocsPerOp >= 0 && cur.AllocsPerOp > b.AllocsPerOp*(1+opts.allocThreshold())+0.5:
			// +0.5 keeps 0→0.4 rounding noise from tripping the gate on
			// allocation-free benchmarks.
			d.Severity = Fail
			d.Reason = fmt.Sprintf("allocs/op %.1f -> %.1f (+%.1f%%)",
				b.AllocsPerOp, cur.AllocsPerOp, pct(d.AllocRatio))
		case d.NsRatio > 1+opts.nsThreshold():
			d.Reason = fmt.Sprintf("ns/op %.0f -> %.0f (+%.1f%%)",
				b.NsPerOp, cur.NsPerOp, pct(d.NsRatio))
			if sameCPU {
				d.Severity = Fail
			} else {
				d.Severity = Warn
				d.Reason += " [different CPU than baseline: advisory]"
			}
		default:
			d.Severity = OK
		}
		if d.Severity == Fail && opts.WarnOnly {
			d.Severity = Warn
			d.Reason += " [warn-only mode]"
		}
		deltas = append(deltas, d)
	}
	for name, b := range baseBy {
		if !curSeen[name] {
			// A benchmark that vanished from the run is a gate failure, not
			// a warning: a silently-dropped bench would otherwise let its
			// regressions ride for free. Renames must update the baseline.
			d := Delta{
				Name: name, Severity: Fail, Base: b,
				Reason: "benchmark missing from current run",
			}
			if opts.WarnOnly {
				d.Severity = Warn
				d.Reason += " [warn-only mode]"
			}
			deltas = append(deltas, d)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

func pct(ratio float64) float64 { return (ratio - 1) * 100 }

// AnyFail reports whether any delta carries gate-blocking severity.
func AnyFail(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Severity == Fail {
			return true
		}
	}
	return false
}

// MarkdownTable renders the comparison as a GitHub-flavored markdown
// table for the Actions job summary.
func MarkdownTable(base, current *Snapshot, deltas []Delta) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Benchmark comparison vs `%s`\n\n", baselineName(base))
	if base.Host.CPU != current.Host.CPU {
		fmt.Fprintf(&sb, "> baseline CPU (`%s`) differs from this host (`%s`): ns/op deltas are advisory, allocs/op deltas gate.\n\n",
			orUnknown(base.Host.CPU), orUnknown(current.Host.CPU))
	}
	sb.WriteString("| benchmark | ns/op (base → cur) | Δns | allocs/op (base → cur) | Δallocs | status |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, d := range deltas {
		ns, dns := "–", "–"
		al, dal := "–", "–"
		if d.Base != nil && d.Cur != nil {
			ns = fmt.Sprintf("%s → %s", humanNs(d.Base.NsPerOp), humanNs(d.Cur.NsPerOp))
			al = fmt.Sprintf("%.0f → %.0f", d.Base.AllocsPerOp, d.Cur.AllocsPerOp)
			if d.NsRatio > 0 {
				dns = fmt.Sprintf("%+.1f%%", pct(d.NsRatio))
			}
			if d.AllocRatio > 0 {
				dal = fmt.Sprintf("%+.1f%%", pct(d.AllocRatio))
			}
		}
		status := d.Severity.String()
		if d.Reason != "" {
			status += ": " + d.Reason
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %s |\n", d.Name, ns, dns, al, dal, status)
	}
	return sb.String()
}

func baselineName(s *Snapshot) string {
	n := "BENCH_" + s.Date
	if s.Label != "" {
		n += "_" + s.Label
	}
	return n + ".json"
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func humanNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
