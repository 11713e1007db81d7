package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leakbound/internal/bench"
)

const benchOutput = `goos: linux
goarch: amd64
cpu: TestCPU v1
BenchmarkA-1	10	1000 ns/op	100 B/op	5 allocs/op
BenchmarkB-1	20	2000 ns/op	200 B/op	10 allocs/op
PASS
`

func runCLI(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestSnapshotMode(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t,
		[]string{"-out", dir, "-date", "2026-08-07", "-label", "r1", "-commit", "abc1234"},
		benchOutput)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	path := filepath.Join(dir, "BENCH_2026-08-07_r1.json")
	if !strings.Contains(stdout, path) {
		t.Errorf("stdout %q missing path", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var s bench.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if s.SchemaVersion != bench.SchemaVersion || s.Date != "2026-08-07" || s.Label != "r1" || s.Commit != "abc1234" {
		t.Errorf("metadata: %+v", s)
	}
	if s.Host.CPU != "TestCPU v1" || s.Host.GOMAXPROCS != 1 {
		t.Errorf("host: %+v", s.Host)
	}
	if len(s.Results) != 2 || s.Results[0].Name != "BenchmarkA" {
		t.Errorf("results: %+v", s.Results)
	}
}

func TestCompareModePassAndFail(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := runCLI(t, []string{"-out", dir, "-date", "2026-08-07"}, benchOutput); code != 0 {
		t.Fatalf("baseline snapshot: exit %d, %s", code, stderr)
	}
	baseline := filepath.Join(dir, "BENCH_2026-08-07.json")

	// Identical run passes.
	code, stdout, _ := runCLI(t, []string{"-compare", baseline}, benchOutput)
	if code != 0 {
		t.Fatalf("identical compare: exit %d\n%s", code, stdout)
	}

	// Alloc regression fails with exit 1 even though the baseline CPU matches.
	regressed := strings.Replace(benchOutput, "5 allocs/op", "50 allocs/op", 1)
	code, stdout, stderr := runCLI(t, []string{"-compare", baseline}, regressed)
	if code != 1 {
		t.Fatalf("regressed compare: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "allocs/op") {
		t.Errorf("table should name the regression:\n%s", stdout)
	}

	// Warn-only demotes the same regression to exit 0.
	code, _, _ = runCLI(t, []string{"-compare", baseline, "-warn-only"}, regressed)
	if code != 0 {
		t.Fatalf("warn-only compare: exit %d, want 0", code)
	}
}

func TestCompareModePicksNewestFromDirectory(t *testing.T) {
	dir := t.TempDir()
	old := strings.Replace(benchOutput, "5 allocs/op", "1000 allocs/op", 1)
	if code, _, _ := runCLI(t, []string{"-out", dir, "-date", "2026-01-01"}, old); code != 0 {
		t.Fatal("old snapshot failed")
	}
	if code, _, _ := runCLI(t, []string{"-out", dir, "-date", "2026-08-07", "-label", "r2-streaming"}, benchOutput); code != 0 {
		t.Fatal("new snapshot failed")
	}
	// Current run matches the NEWEST baseline (5 allocs/op); against the old
	// one it would be a huge improvement either way, but a regression vs the
	// old snapshot proves newest-wins: bump allocs to 20 (fails vs newest's
	// 5, passes vs old's 1000).
	regressed := strings.Replace(benchOutput, "5 allocs/op", "20 allocs/op", 1)
	code, _, stderr := runCLI(t, []string{"-compare", dir}, regressed)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (gate must use newest snapshot): %s", code, stderr)
	}
	if !strings.Contains(stderr, "r2-streaming") {
		t.Errorf("stderr should name the newest baseline: %s", stderr)
	}
}

func TestCompareSummaryFile(t *testing.T) {
	dir := t.TempDir()
	if code, _, _ := runCLI(t, []string{"-out", dir, "-date", "2026-08-07"}, benchOutput); code != 0 {
		t.Fatal("snapshot failed")
	}
	summary := filepath.Join(dir, "summary.md")
	code, _, stderr := runCLI(t, []string{"-compare", dir, "-summary", summary}, benchOutput)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(summary)
	if err != nil {
		t.Fatalf("summary not written: %v", err)
	}
	if !strings.Contains(string(raw), "| BenchmarkA |") {
		t.Errorf("summary content:\n%s", raw)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, nil, "no benchmarks here\n"); code != 2 {
		t.Errorf("empty input: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, []string{"-compare", "/nonexistent/path.json"}, benchOutput); code != 2 {
		t.Errorf("missing baseline: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, []string{"-compare", t.TempDir()}, benchOutput); code != 2 {
		t.Errorf("empty baseline dir: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "BENCH_2026-01-01.json")
	if err := os.WriteFile(bad, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, []string{"-compare", bad}, benchOutput); code != 2 {
		t.Errorf("schema mismatch: exit %d, want 2 (%s)", code, stderr)
	}
}

func TestSnapshotRequireCoverage(t *testing.T) {
	dir := t.TempDir()
	// No committed baseline yet: the first snapshot must still write.
	code, _, stderr := runCLI(t,
		[]string{"-out", dir, "-date", "2026-08-07", "-require-coverage"}, benchOutput)
	if code != 0 {
		t.Fatalf("first snapshot: exit %d, stderr: %s", code, stderr)
	}

	// A run dropping BenchmarkB must fail loudly and write nothing.
	narrowed := `goos: linux
goarch: amd64
cpu: TestCPU v1
BenchmarkA-1	10	1000 ns/op	100 B/op	5 allocs/op
PASS
`
	code, _, stderr = runCLI(t,
		[]string{"-out", dir, "-date", "2026-08-08", "-require-coverage"}, narrowed)
	if code != 1 {
		t.Fatalf("dropped benchmark: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "BenchmarkB") {
		t.Errorf("stderr %q does not name the missing benchmark", stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2026-08-08.json")); !os.IsNotExist(err) {
		t.Errorf("snapshot written despite failed coverage check: %v", err)
	}

	// Without the flag the narrowed run still snapshots (explicit opt-out).
	code, _, stderr = runCLI(t, []string{"-out", dir, "-date", "2026-08-08"}, narrowed)
	if code != 0 {
		t.Fatalf("opt-out: exit %d, stderr: %s", code, stderr)
	}

	// A superset run passes the check: the 2026-08-08 baseline has only
	// BenchmarkA, and extra benchmarks in the run are fine.
	code, _, stderr = runCLI(t,
		[]string{"-out", dir, "-date", "2026-08-09", "-require-coverage"}, benchOutput)
	if code != 0 {
		t.Fatalf("superset: exit %d, stderr: %s", code, stderr)
	}
}

// TestSnapshotRequireCoverageByProcs pins that coverage matches rows by
// (name, GOMAXPROCS): a run at -cpu 2 alone does not cover a baseline
// taken at GOMAXPROCS 1.
func TestSnapshotRequireCoverageByProcs(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := runCLI(t, []string{"-out", dir, "-date", "2026-08-07"}, benchOutput); code != 0 {
		t.Fatalf("baseline: exit %d, stderr: %s", code, stderr)
	}
	onlyTwo := `goos: linux
goarch: amd64
cpu: TestCPU v1
BenchmarkA-2	10	1000 ns/op	100 B/op	5 allocs/op
BenchmarkB-2	20	2000 ns/op	200 B/op	10 allocs/op
PASS
`
	code, _, stderr := runCLI(t, []string{"-out", dir, "-date", "2026-08-08", "-require-coverage"}, onlyTwo)
	if code != 1 {
		t.Fatalf("procs-2-only run: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "[BenchmarkA BenchmarkB]") {
		t.Errorf("stderr %q does not name the uncovered GOMAXPROCS-1 rows", stderr)
	}
	both := benchOutput + onlyTwo
	if code, _, stderr := runCLI(t, []string{"-out", dir, "-date", "2026-08-08", "-require-coverage"}, both); code != 0 {
		t.Fatalf("-cpu 1,2 run: exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_2026-08-08.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s bench.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 4 {
		t.Errorf("snapshot has %d rows, want one per (name, GOMAXPROCS): %+v", len(s.Results), s.Results)
	}
}
