package bench

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: leakbound
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSuiteAll-4            	       3	1680533621 ns/op	249670440 B/op	   97577 allocs/op
BenchmarkPipelineSimulateGzip-4	      25	  48123456 ns/op	32500000 B/op	    6406 allocs/op
BenchmarkCodecRoundTrip-4      	    1000	   1200000 ns/op	 512.00 MB/s	  100000 B/op	      12 allocs/op
PASS
ok  	leakbound	12.345s
`

func TestParse(t *testing.T) {
	out, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if out.CPU != "Intel(R) Xeon(R) CPU @ 2.10GHz" {
		t.Errorf("CPU = %q", out.CPU)
	}
	if out.GOOS != "linux" || out.GOARCH != "amd64" {
		t.Errorf("GOOS/GOARCH = %q/%q", out.GOOS, out.GOARCH)
	}
	if out.GOMAXPROCS != 4 {
		t.Errorf("GOMAXPROCS = %d, want 4", out.GOMAXPROCS)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	r := out.Results[0]
	if r.Name != "BenchmarkSuiteAll" {
		t.Errorf("name = %q (suffix should be stripped)", r.Name)
	}
	if r.Iterations != 3 || r.NsPerOp != 1680533621 || r.BytesPerOp != 249670440 || r.AllocsPerOp != 97577 {
		t.Errorf("unexpected measurements: %+v", r)
	}
	codec := out.Results[2]
	if got := codec.Metrics["MB/s"]; got != 512 {
		t.Errorf("MB/s metric = %v, want 512", got)
	}
}

func TestParseFoldsRepeatsToBest(t *testing.T) {
	in := `BenchmarkX-2	10	200 ns/op	60 B/op	4 allocs/op
BenchmarkX-2	10	100 ns/op	40 B/op	2 allocs/op
BenchmarkX-2	10	150 ns/op	50 B/op	3 allocs/op
`
	out, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d results, want 1 merged", len(out.Results))
	}
	r := out.Results[0]
	if r.NsPerOp != 100 || r.BytesPerOp != 40 || r.AllocsPerOp != 2 {
		t.Errorf("best-of = %+v, want 100/40/2", r)
	}
	if r.Iterations != 30 {
		t.Errorf("iterations = %d, want summed 30", r.Iterations)
	}
}

// TestParseKeepsProcsVariantsApart pins that the rows of a -cpu run stay
// separate: folding BenchmarkX-1 and BenchmarkX-2 best-of-N would keep
// the better of the two and hide a multi-core regression.
func TestParseKeepsProcsVariantsApart(t *testing.T) {
	const baseRun = `cpu: cpuA
BenchmarkX-1	10	100 ns/op	10 B/op	1 allocs/op
BenchmarkX-2	10	100 ns/op	10 B/op	1 allocs/op
BenchmarkX-1	10	90 ns/op	10 B/op	1 allocs/op
BenchmarkX-2	10	110 ns/op	10 B/op	1 allocs/op
`
	for _, tc := range []struct {
		name     string
		run      string
		wantFail []string // keys of the rows that must fail the gate
	}{
		{
			name: "unchanged",
			run:  baseRun,
		},
		{
			name: "allocs regress at -2 only",
			run: `cpu: cpuA
BenchmarkX-1	10	100 ns/op	10 B/op	1 allocs/op
BenchmarkX-2	10	100 ns/op	30 B/op	3 allocs/op
`,
			wantFail: []string{"BenchmarkX-2"},
		},
		{
			name: "time regresses at -2 only",
			run: `cpu: cpuA
BenchmarkX	10	90 ns/op	10 B/op	1 allocs/op
BenchmarkX-2	10	300 ns/op	10 B/op	1 allocs/op
`,
			wantFail: []string{"BenchmarkX-2"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Parse(strings.NewReader(baseRun))
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Results) != 2 {
				t.Fatalf("got %d results, want one per GOMAXPROCS: %+v", len(base.Results), base.Results)
			}
			for i, want := range []struct {
				procs int
				ns    float64
			}{{1, 90}, {2, 100}} {
				if r := base.Results[i]; r.Name != "BenchmarkX" || r.Procs != want.procs || r.NsPerOp != want.ns {
					t.Errorf("result %d = %+v, want BenchmarkX procs %d best %v ns/op", i, r, want.procs, want.ns)
				}
			}
			if base.GOMAXPROCS != 2 {
				t.Errorf("GOMAXPROCS = %d, want the largest suffix 2", base.GOMAXPROCS)
			}
			cur, err := Parse(strings.NewReader(tc.run))
			if err != nil {
				t.Fatal(err)
			}
			deltas := Compare(snap("cpuA", base.Results...), snap("cpuA", cur.Results...), CompareOptions{})
			var failed []string
			for _, d := range deltas {
				if d.Severity != OK {
					if d.Severity != Fail {
						t.Errorf("%s: severity %v (%s), want ok or FAIL", d.Name, d.Severity, d.Reason)
					}
					failed = append(failed, d.Name)
				}
			}
			if strings.Join(failed, ",") != strings.Join(tc.wantFail, ",") {
				t.Errorf("failing rows = %v, want %v", failed, tc.wantFail)
			}
		})
	}
}

// TestKeyDefaultsToHostProcs covers snapshots written before results
// carried Procs: their rows ran at the host's GOMAXPROCS.
func TestKeyDefaultsToHostProcs(t *testing.T) {
	old := snap("cpuA", res("BenchmarkX", 100, 1))
	if got := old.Key(&old.Results[0]); got != "BenchmarkX" {
		t.Errorf("key at host GOMAXPROCS 1 = %q, want BenchmarkX", got)
	}
	old.Host.GOMAXPROCS = 4
	if got := old.Key(&old.Results[0]); got != "BenchmarkX-4" {
		t.Errorf("key at host GOMAXPROCS 4 = %q, want BenchmarkX-4", got)
	}
	r := Result{Name: "BenchmarkX", Procs: 2}
	if got := old.Key(&r); got != "BenchmarkX-2" {
		t.Errorf("explicit Procs key = %q, want BenchmarkX-2", got)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	in := "BenchmarkY	5	10 ns/op	1234 instr/s	0 B/op	0 allocs/op\n"
	out, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := out.Results[0].Metrics["instr/s"]; got != 1234 {
		t.Errorf("instr/s = %v", got)
	}
	if out.GOMAXPROCS != 0 {
		t.Errorf("GOMAXPROCS = %d, want 0 for suffix-less names", out.GOMAXPROCS)
	}
}

func TestParseNoBenchmarks(t *testing.T) {
	_, err := Parse(strings.NewReader("PASS\nok  \tleakbound\t0.1s\n"))
	if !errors.Is(err, ErrNoBenchmarks) {
		t.Fatalf("err = %v, want ErrNoBenchmarks", err)
	}
}

func snap(cpu string, results ...Result) *Snapshot {
	return &Snapshot{
		SchemaVersion: SchemaVersion,
		Date:          "2026-08-07",
		Host:          Host{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: cpu, GOMAXPROCS: 1},
		Results:       results,
	}
}

func res(name string, ns, allocs float64) Result {
	return Result{Name: name, Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareAllocRegressionFailsEvenCrossCPU(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 100, 10))
	cur := snap("cpuB", res("BenchmarkX", 100, 20))
	deltas := Compare(base, cur, CompareOptions{})
	if len(deltas) != 1 || deltas[0].Severity != Fail {
		t.Fatalf("deltas = %+v, want single Fail", deltas)
	}
	if !strings.Contains(deltas[0].Reason, "allocs/op") {
		t.Errorf("reason = %q", deltas[0].Reason)
	}
}

func TestCompareNsRegressionSameCPUFails(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 100, 10))
	cur := snap("cpuA", res("BenchmarkX", 130, 10))
	deltas := Compare(base, cur, CompareOptions{})
	if deltas[0].Severity != Fail {
		t.Fatalf("severity = %v, want Fail: %+v", deltas[0].Severity, deltas[0])
	}
	if math.Abs(deltas[0].NsRatio-1.3) > 1e-9 {
		t.Errorf("NsRatio = %v", deltas[0].NsRatio)
	}
}

func TestCompareNsRegressionCrossCPUWarns(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 100, 10))
	cur := snap("cpuB", res("BenchmarkX", 500, 10))
	deltas := Compare(base, cur, CompareOptions{})
	if deltas[0].Severity != Warn {
		t.Fatalf("severity = %v, want Warn for cross-CPU timing", deltas[0].Severity)
	}
}

func TestCompareWithinThresholdOK(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 100, 100))
	cur := snap("cpuA", res("BenchmarkX", 115, 101)) // +15% ns, +1% allocs
	deltas := Compare(base, cur, CompareOptions{})
	if deltas[0].Severity != OK {
		t.Fatalf("severity = %v, want OK: %+v", deltas[0].Severity, deltas[0])
	}
}

func TestCompareZeroAllocNoiseGuard(t *testing.T) {
	// 0 -> 0.4 allocs/op (rounding noise on an alloc-free benchmark) must
	// not trip the gate; 0 -> 1 must.
	base := snap("cpuA", res("BenchmarkX", 100, 0), res("BenchmarkY", 100, 0))
	cur := snap("cpuA", Result{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: 0.4},
		Result{Name: "BenchmarkY", NsPerOp: 100, AllocsPerOp: 1})
	deltas := Compare(base, cur, CompareOptions{})
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["BenchmarkX"].Severity != OK {
		t.Errorf("0->0.4 should be OK, got %v", byName["BenchmarkX"].Severity)
	}
	if byName["BenchmarkY"].Severity != Fail {
		t.Errorf("0->1 should Fail, got %v", byName["BenchmarkY"].Severity)
	}
}

func TestCompareWarnOnlyDemotes(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 100, 10))
	cur := snap("cpuA", res("BenchmarkX", 100, 50))
	deltas := Compare(base, cur, CompareOptions{WarnOnly: true})
	if deltas[0].Severity != Warn {
		t.Fatalf("severity = %v, want Warn in warn-only mode", deltas[0].Severity)
	}
	if AnyFail(deltas) {
		t.Error("AnyFail should be false in warn-only mode")
	}
}

func TestCompareMissingFailsNewWarns(t *testing.T) {
	base := snap("cpuA", res("BenchmarkGone", 100, 10))
	cur := snap("cpuA", res("BenchmarkNew", 100, 10))
	deltas := Compare(base, cur, CompareOptions{})
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	for _, d := range deltas {
		switch d.Name {
		case "BenchmarkGone":
			if d.Severity != Fail {
				t.Errorf("missing benchmark severity = %v, want Fail", d.Severity)
			}
		case "BenchmarkNew":
			if d.Severity != Warn {
				t.Errorf("new benchmark severity = %v, want Warn", d.Severity)
			}
		}
	}
	if !AnyFail(deltas) {
		t.Error("a benchmark missing from the current run must fail the gate")
	}
	// Warn-only demotes the missing-benchmark failure like any other.
	for _, d := range Compare(base, cur, CompareOptions{WarnOnly: true}) {
		if d.Severity == Fail {
			t.Errorf("%s severity = Fail in warn-only mode", d.Name)
		}
	}
}

func TestCompareImprovementOK(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 1000, 1000))
	cur := snap("cpuA", res("BenchmarkX", 100, 50))
	deltas := Compare(base, cur, CompareOptions{})
	if deltas[0].Severity != OK {
		t.Fatalf("improvement flagged: %+v", deltas[0])
	}
}

func TestMarkdownTable(t *testing.T) {
	base := snap("cpuA", res("BenchmarkX", 2e9, 100))
	cur := snap("cpuB", res("BenchmarkX", 1e6, 10))
	deltas := Compare(base, cur, CompareOptions{})
	table := MarkdownTable(base, cur, deltas)
	for _, want := range []string{
		"BENCH_2026-08-07.json",
		"| BenchmarkX |",
		"2.00s → 1.0ms",
		"100 → 10",
		"differs from this host",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestSeverityString(t *testing.T) {
	if OK.String() != "ok" || Warn.String() != "warn" || Fail.String() != "FAIL" {
		t.Errorf("Severity strings: %v %v %v", OK, Warn, Fail)
	}
}
