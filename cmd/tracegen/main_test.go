package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

const testSpecJSON = `{"version":1,"name":"test-spec","seed":3,"phases":[
	{"body_instrs":200,"iterations":40,"mix":[
		{"kernel":"loop","bytes":16384},{"kernel":"hot"}]}]}`

func writeSpec(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenerateAndSummarize(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trc")
	if err := runGenerate(context.Background(), "gzip", "", "D", out, 0.02); err != nil {
		t.Fatal(err)
	}
	if err := runSummarize(out); err != nil {
		t.Fatal(err)
	}
}

func TestCollectCache(t *testing.T) {
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	s, res, err := collectCache(context.Background(), workload.MustNew("gzip", 0.01), hier, trace.L1D)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("empty stream")
	}
	if s.NumFrames != 1024 {
		t.Errorf("NumFrames = %d, want 1024", s.NumFrames)
	}
	if s.TotalCycles < res.Cycles {
		t.Errorf("TotalCycles %d < run cycles %d", s.TotalCycles, res.Cycles)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("stream invalid: %v", err)
	}
	for _, e := range s.Events {
		if e.Cache != trace.L1D {
			t.Fatalf("foreign event: %+v", e)
		}
	}
}

// TestCacheSinkReturnsAppendError pins that an event the stream rejects
// comes back as an error through the sink instead of a panic.
func TestCacheSinkReturnsAppendError(t *testing.T) {
	b := stream.NewBatch(4)
	b.Append(10, 1, 0x400000, 0, trace.L1D, trace.Load, false)
	b.Append(12, 2, 0x400004, 0, trace.L1I, trace.Fetch, false) // other cache: skipped
	b.Append(5, 3, 0x400008, 1, trace.L1D, trace.Load, false)   // out of cycle order
	s := &trace.Stream{}
	if err := cacheSink(s, trace.L1D)(b); err == nil {
		t.Fatal("out-of-order event accepted")
	}
	if s.Len() != 1 {
		t.Errorf("stream holds %d events, want the 1 accepted before the error", s.Len())
	}
}

func TestGenerateICacheAndL2(t *testing.T) {
	dir := t.TempDir()
	for _, side := range []string{"I", "L2"} {
		out := filepath.Join(dir, side+".trc")
		if err := runGenerate(context.Background(), "ammp", "", side, out, 0.02); err != nil {
			t.Fatalf("%s: %v", side, err)
		}
	}
}

func TestGenerateFromSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpec(t, dir, "w.json", testSpecJSON)
	out := filepath.Join(dir, "spec.trc")
	if err := runGenerate(context.Background(), "", specPath, "D", out, 1); err != nil {
		t.Fatal(err)
	}
	if err := runSummarize(out); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpec(t, dir, "w.json", testSpecJSON)
	rec := filepath.Join(dir, "w.trc")
	if err := runRecord("", specPath, rec, 1); err != nil {
		t.Fatal(err)
	}
	// The recording replays through -spec: generating from the spec and
	// from its recording must produce identical cache event traces.
	fromSpec := filepath.Join(dir, "from_spec.trc")
	fromRec := filepath.Join(dir, "from_rec.trc")
	if err := runGenerate(context.Background(), "", specPath, "D", fromSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := runGenerate(context.Background(), "", rec, "D", fromRec, 1); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fromSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fromRec)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("replayed recording diverged from the spec's own trace")
	}
	// Recording a built-in benchmark works too.
	if err := runRecord("gzip", "", filepath.Join(dir, "g.trc"), 0.02); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAndList(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "a.json", testSpecJSON)
	var sb strings.Builder
	if err := runCheck(&sb, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test-spec") || !strings.Contains(sb.String(), "1 scenarios valid") {
		t.Errorf("check output: %q", sb.String())
	}
	sb.Reset()
	if err := runCheck(&sb, filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	writeSpec(t, dir, "bad.json", `{"version":1,"name":"bad","phases":[]}`)
	if err := runCheck(&sb, dir); err == nil {
		t.Error("invalid spec passed check")
	}
	if err := runCheck(&sb, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file passed check")
	}

	sb.Reset()
	if err := runList(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("list output missing %q", name)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	ctx := context.Background()
	if err := runGenerate(ctx, "gzip", "", "D", "", 0.02); !errors.Is(err, ErrMissingOutput) {
		t.Errorf("missing output: %v", err)
	}
	if err := runGenerate(ctx, "gzip", "", "Q", "x.trc", 0.02); !errors.Is(err, ErrUnknownCache) {
		t.Errorf("unknown cache: %v", err)
	}
	if err := runGenerate(ctx, "nope", "", "D", "x.trc", 0.02); !errors.Is(err, workload.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: %v", err)
	}
	if err := runGenerate(ctx, "gzip", "also.json", "D", "x.trc", 0.02); !errors.Is(err, ErrConflictingSource) {
		t.Errorf("bench+spec: %v", err)
	}
	if err := runRecord("gzip", "", "", 0.02); !errors.Is(err, ErrMissingOutput) {
		t.Errorf("record missing output: %v", err)
	}
	if err := runSummarize(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCacheID(t *testing.T) {
	for side, want := range map[string]trace.CacheID{"I": trace.L1I, "D": trace.L1D, "L2": trace.L2} {
		got, err := cacheID(side)
		if err != nil || got != want {
			t.Errorf("cacheID(%q) = %v, %v", side, got, err)
		}
	}
}
