package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leakbound/internal/experiments"
	"leakbound/internal/telemetry"
)

func TestRunSubsets(t *testing.T) {
	// Static items are fast; simulated items run at a tiny scale.
	for _, only := range []string{"fig1", "table1", "table3", "fig10"} {
		if err := run(context.Background(), io.Discard, 0.02, 0, only, "", "", "text"); err != nil {
			t.Errorf("run(%q): %v", only, err)
		}
	}
}

func TestRunSimulatedSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full suite")
	}
	if err := run(context.Background(), io.Discard, 0.02, 2, "fig8,fig9", "", "", "markdown"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(context.Background(), io.Discard, 0, 0, "table1", "", "", "text"); err == nil {
		t.Error("zero scale accepted")
	}
	if err := run(context.Background(), io.Discard, 0.02, 0, "table1", "", "", "html"); err == nil {
		t.Error("unknown format accepted")
	}
	var out bytes.Buffer
	err := run(context.Background(), &out, 0.02, 0, "table1,fig11", "", "", "text")
	if err == nil {
		t.Fatal("unknown -only item accepted")
	}
	for _, want := range []string{`"fig11"`, "table1", "families", "sweep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote output:\n%s", out.String())
	}
}

// TestRunTable3HonorsFormat: table3 renders through the selected format
// like every other table.
func TestRunTable3HonorsFormat(t *testing.T) {
	var got, want bytes.Buffer
	if err := run(context.Background(), &got, 0.02, 0, "table3", "", "", "csv"); err != nil {
		t.Fatal(err)
	}
	if err := experiments.Table3().RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("-only table3 -format csv:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestRunWithDiskCache(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), io.Discard, 0.02, 0, "table1", dir, "", "csv"); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithSpecsDir loads a workload-spec directory and checks the
// scenario rides through a full-suite item next to the builtins.
func TestRunWithSpecsDir(t *testing.T) {
	dir := t.TempDir()
	specJSON := `{"version":1,"name":"cli-spec","seed":4,"phases":[
		{"body_instrs":200,"iterations":40,"mix":[{"kernel":"hot","lines":8}]}]}`
	if err := os.WriteFile(filepath.Join(dir, "cli-spec.json"), []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, 0.02, 0, "profile", "", dir, "text"); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, 0.02, 0, "table1", "", filepath.Join(dir, "missing"), "text"); err == nil {
		t.Error("missing specs dir accepted")
	}
}

// TestRunWithMetricsSnapshot exercises what `experiments -metrics` does in
// main: run a full-suite item, then print the telemetry snapshot. The
// snapshot must report per-benchmark simulation time, event counts, and
// disk-cache hit/miss counters.
func TestRunWithMetricsSnapshot(t *testing.T) {
	var buf bytes.Buffer
	stop, err := (telemetry.Observability{Metrics: true, MetricsOut: &buf}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), io.Discard, 0.02, 0, "profile", t.TempDir(), "", "text"); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"suite:", "sim_ms/gzip", "events/gzip",
		"diskcache:", "hits", "misses",
		"pool:", "tasks_completed",
		"cpu:", "events_emitted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, out)
		}
	}
}
