// Command benchsnap freezes and gates benchmark results.
//
// Snapshot mode (default) reads `go test -bench -benchmem` output on
// stdin and writes a BENCH_<date>[_<label>].json snapshot:
//
//	go test -bench='...' -benchmem | benchsnap -date 2026-08-07 -label r1 -out .
//
// With -require-coverage, snapshot mode first checks the run against the
// newest committed snapshot in -out and refuses (exit 1, nothing
// written) when any baseline benchmark is missing from the run — a
// renamed or dropped bench must be an explicit decision, not a silent
// hole in the next baseline.
//
// Compare mode reads the same output on stdin and gates it against a
// committed baseline snapshot:
//
//	go test -bench='...' -benchmem | benchsnap -compare BENCH_2026-08-07.json
//
// Exit codes in compare mode: 0 = within thresholds (warnings allowed),
// 1 = gate-blocking regression, 2 = usage or I/O failure. The gate
// policy (see internal/bench): allocs/op regressions always block,
// ns/op regressions beyond -threshold block only when the baseline was
// taken on the same CPU model — cross-machine timing deltas are
// advisory. -warn-only demotes every failure to a warning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"leakbound/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", ".", "directory to write the snapshot into")
		date      = fs.String("date", "", "snapshot date (YYYY-MM-DD); defaults to today")
		label     = fs.String("label", "", "snapshot label, appended to the filename (e.g. r2-streaming)")
		commit    = fs.String("commit", "", "abbreviated git revision to record")
		compare   = fs.String("compare", "", "baseline BENCH_*.json (or a directory to pick the newest from); switches to compare mode")
		threshold = fs.Float64("threshold", 0.20, "fractional ns/op regression tolerated before failing")
		allocTol  = fs.Float64("alloc-threshold", 0.02, "fractional allocs/op regression tolerated before failing")
		warnOnly  = fs.Bool("warn-only", false, "report regressions but exit 0")
		summary   = fs.String("summary", "", "append a markdown comparison table to this file (compare mode)")
		coverage  = fs.Bool("require-coverage", false, "snapshot mode: fail (exit 1, nothing written) when a benchmark in the newest committed snapshot is missing from this run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	parsed, err := bench.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap: %v\n", err)
		return 2
	}
	snap := snapshotFrom(parsed, *date, *label, *commit)

	if *compare == "" {
		if *coverage {
			if missing, basePath := missingFromBaseline(*out, snap); len(missing) > 0 {
				fmt.Fprintf(stderr, "benchsnap: benchmarks in %s missing from this run: %v\n", basePath, missing)
				fmt.Fprintf(stderr, "benchsnap: refusing to write a snapshot that silently drops them (narrow BENCH on purpose? rerun without -require-coverage)\n")
				return 1
			}
		}
		path := filepath.Join(*out, snapshotFilename(snap))
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchsnap: %v\n", err)
			return 2
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchsnap: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", path, len(snap.Results))
		return 0
	}

	basePath, err := resolveBaseline(*compare)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap: %v\n", err)
		return 2
	}
	base, err := readSnapshot(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap: %v\n", err)
		return 2
	}
	deltas := bench.Compare(base, snap, bench.CompareOptions{
		NsThreshold:    *threshold,
		AllocThreshold: *allocTol,
		WarnOnly:       *warnOnly,
	})
	table := bench.MarkdownTable(base, snap, deltas)
	fmt.Fprintln(stdout, table)
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "benchsnap: %v\n", err)
			return 2
		}
		_, werr := fmt.Fprintln(f, table)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "benchsnap: %v\n", werr)
			return 2
		}
	}
	if bench.AnyFail(deltas) {
		fmt.Fprintf(stderr, "benchsnap: performance gate failed against %s\n", basePath)
		return 1
	}
	return 0
}

// snapshotFrom assembles a snapshot, preferring host facts printed by the
// benchmark run itself over this process's runtime (they can differ when
// the output was produced elsewhere and only normalized here).
func snapshotFrom(parsed *bench.RunOutput, date, label, commit string) *bench.Snapshot {
	if date == "" {
		date = time.Now().Format("2006-01-02")
	}
	host := bench.Host{
		GoVersion:  runtime.Version(),
		GOOS:       orDefault(parsed.GOOS, runtime.GOOS),
		GOARCH:     orDefault(parsed.GOARCH, runtime.GOARCH),
		CPU:        parsed.CPU,
		GOMAXPROCS: parsed.GOMAXPROCS,
	}
	if host.GOMAXPROCS == 0 {
		host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	}
	return &bench.Snapshot{
		SchemaVersion: bench.SchemaVersion,
		Date:          date,
		Label:         label,
		Commit:        commit,
		Host:          host,
		Results:       parsed.Results,
	}
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func snapshotFilename(s *bench.Snapshot) string {
	name := "BENCH_" + s.Date
	if s.Label != "" {
		name += "_" + s.Label
	}
	return name + ".json"
}

// missingFromBaseline resolves the newest committed snapshot in dir and
// returns the rows it records (by Snapshot.Key: name and GOMAXPROCS) that
// the new snapshot lacks, sorted. No committed baseline (or an unreadable one) means nothing to
// enforce: the first snapshot of a repo must still be writable.
func missingFromBaseline(dir string, snap *bench.Snapshot) (missing []string, basePath string) {
	basePath, err := resolveBaseline(dir)
	if err != nil {
		return nil, ""
	}
	base, err := readSnapshot(basePath)
	if err != nil {
		return nil, ""
	}
	have := make(map[string]bool, len(snap.Results))
	for i := range snap.Results {
		have[snap.Key(&snap.Results[i])] = true
	}
	for i := range base.Results {
		if k := base.Key(&base.Results[i]); !have[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing, basePath
}

var benchFilePat = regexp.MustCompile(`^BENCH_\d{4}-\d{2}-\d{2}.*\.json$`)

// resolveBaseline accepts either a snapshot file or a directory, in which
// case the lexicographically greatest BENCH_*.json wins — the filename
// discipline (date, then label) makes that the newest snapshot.
func resolveBaseline(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && benchFilePat.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no BENCH_*.json snapshots in %s", path)
	}
	sort.Strings(names)
	return filepath.Join(path, names[len(names)-1]), nil
}

func readSnapshot(path string) (*bench.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s bench.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.SchemaVersion != bench.SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d (want %d)", path, s.SchemaVersion, bench.SchemaVersion)
	}
	return &s, nil
}
