package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// TestRunContextCancelled verifies an already-cancelled context stops the
// run almost immediately and returns ctx.Err() with a coherent partial
// result.
func TestRunContextCancelled(t *testing.T) {
	w := workload.MustNew("gzip", 0.2)
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events uint64
	res, err := runContext(ctx, w, hier, DefaultConfig(), func(e trace.Event) { events++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The pre-cancelled context is observed on the very first check.
	if res.Instructions > ctxCheckMask+1 {
		t.Fatalf("ran %d instructions after cancellation (check mask %d)", res.Instructions, ctxCheckMask)
	}
	if events > 0 && res.Cycles == 0 {
		t.Fatalf("sink saw %d events but result reports no cycles", events)
	}
}

// TestRunContextDeadline verifies a deadline mid-run stops promptly with
// DeadlineExceeded and a partial result.
func TestRunContextDeadline(t *testing.T) {
	w := workload.MustNew("gcc", 1.0)
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := runContext(ctx, w, hier, DefaultConfig(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt stop", elapsed)
	}
	// A full gcc run is millions of instructions; a 1ms budget must have
	// stopped it early, and the partial result must still be coherent.
	full, err := run(workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions >= full.Instructions {
		t.Fatalf("deadline run executed %d instructions, full run %d — not cancelled early",
			res.Instructions, full.Instructions)
	}
}

// TestRunContextBackgroundMatchesRun proves the context plumbing does not
// perturb the simulation: a run under context.Background and one under a
// live, never-cancelled context produce identical results and identical
// event streams.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	mk := func() (workload.Workload, *cache.Hierarchy) {
		return workload.MustNew("gzip", 0.05), mustHierarchy(t)
	}
	w1, h1 := mk()
	var e1 []trace.Event
	r1, err := run(w1, h1, DefaultConfig(), func(e trace.Event) { e1 = append(e1, e) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w2, h2 := mk()
	var e2 []trace.Event
	r2, err := runContext(ctx, w2, h2, DefaultConfig(), func(e trace.Event) { e2 = append(e2, e) })
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || len(e1) != len(e2) {
		t.Fatalf("background run %+v (%d events) != live-context run %+v (%d events)", r1, len(e1), r2, len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// TestEachEventMatchesBatches proves the per-event adapter is a faithful
// view of the batch stream: EachEvent delivers exactly the events of the
// batches, in order, and the run itself is unperturbed.
func TestEachEventMatchesBatches(t *testing.T) {
	mk := func() (workload.Workload, *cache.Hierarchy) {
		return workload.MustNew("gzip", 0.05), mustHierarchy(t)
	}
	w1, h1 := mk()
	var batched []trace.Event
	r1, err := RunStreamContext(context.Background(), w1, h1, DefaultConfig(), func(b *stream.Batch) error {
		for i := 0; i < b.Len(); i++ {
			batched = append(batched, b.Event(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w2, h2 := mk()
	var each []trace.Event
	r2, err := RunStreamContext(context.Background(), w2, h2, DefaultConfig(), EachEvent(func(e trace.Event) {
		each = append(each, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("batch run %+v != per-event run %+v", r1, r2)
	}
	if len(batched) != len(each) {
		t.Fatalf("batch run saw %d events, per-event run %d", len(batched), len(each))
	}
	for i := range batched {
		if batched[i] != each[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, batched[i], each[i])
		}
	}
}

// TestSinkErrorStopsRun verifies a failing sink stops the simulation early
// and its error comes back with the partial result.
func TestSinkErrorStopsRun(t *testing.T) {
	sentinel := errors.New("sink full")
	var calls int
	res, err := RunStreamContext(context.Background(), workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(),
		func(*stream.Batch) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sink's error", err)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after failing, want 1", calls)
	}
	full, err := run(workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions >= full.Instructions {
		t.Errorf("failed run executed %d instructions, full run %d — not stopped early",
			res.Instructions, full.Instructions)
	}
}

func mustHierarchy(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	return h
}
