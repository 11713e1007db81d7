package main

import (
	"context"
	"maps"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		p         float64
		qualified bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, uint64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := tailOf(xs)
		if got.P != tc.p || got.Qualified != tc.qualified || got.N != tc.n {
			t.Errorf("n=%d: got p%g qualified=%v n=%d, want p%g qualified=%v", tc.n, got.P, got.Qualified, got.N, tc.p, tc.qualified)
			continue
		}
		// Values are 1..n, so the nearest-rank value is the rank itself,
		// and at least minBeyond samples lie above it when qualified.
		r := rank(got.P, tc.n)
		if got.Value != float64(r) {
			t.Errorf("n=%d: value %g, want %d", tc.n, got.Value, r)
		}
		if tc.qualified && tc.n-r < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, tc.n-r, got.P)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", Start: 12, End: 15}, // nested in a
		{ID: 6, Parent: 2, Name: "a2", Start: 14, End: 18}, // overlaps a1
		{ID: 7, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - (40 + 10), // children cover [10,50) and [90,100)
		2: 20 - 6,          // a1 ∪ a2 = [12,18)
		3: 30, 4: 30, 5: 3, 6: 4, 7: 7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	dur, self := totals(spans)
	if dur["root"] != 100 || self["root"] != 50 {
		t.Errorf("totals: dur %v self %v", dur["root"], self["root"])
	}
}

func TestRecorderWritesParsableSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, 1)
	child := r.begin("child", root, 1)
	r.end(child)
	r.begin("never closed", root, 1)
	r.end(root)
	var nilRec *recorder
	if id := nilRec.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2", len(spans))
	}
	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := writeSpans(path, spanFile{Workload: "x", Host: readHostFacts(), Spans: spans}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	specs, err := exampleSpecs("..")
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	a, err := buildSchedule(7, n, 2*time.Second, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(7, n, 2*time.Second, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	c, err := buildSchedule(8, n, 2*time.Second, specs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) < n || len(a) > n+1 || a[len(a)-1].Due != 2*time.Second {
		t.Fatalf("%d requests, last due %v; want %d or %d, the last due at 2s", len(a), a[len(a)-1].Due, n, n+1)
	}

	// A longer schedule starts with the same requests; only due times
	// are spread over the same run.
	long, err := buildSchedule(7, 3*n, 2*time.Second, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		x, y := a[i], long[i]
		x.Due, y.Due = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("request %d differs between a schedule of %d and one of %d", i, n, 3*n)
		}
	}

	// Every mode appears, due times ascend, pairs are twins due together,
	// and each miss key is new.
	var counts [numModes]int
	missKeys := make(map[string]bool)
	for i, r := range a {
		counts[r.Mode]++
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if r.Pair >= 0 {
			twin := a[r.Pair]
			if twin.Pair != i || twin.Due != r.Due || string(twin.Body) != string(r.Body) {
				t.Fatalf("request %d and %d are not twins", i, r.Pair)
			}
		}
		if r.Mode == modeEvalMiss {
			if missKeys[r.Key] {
				t.Fatalf("miss key %s repeats", r.Key)
			}
			missKeys[r.Key] = true
		}
	}
	for m, c := range counts {
		if c == 0 {
			t.Errorf("mode %s never scheduled", modeNames[m])
		}
	}
	// One card per kind; sweep and Pareto share one.
	seen := make(map[mode]bool)
	for _, m := range deck {
		seen[m] = true
	}
	if len(seen) != len(deck) || len(deck) != int(numModes)-1 || seen[modePareto] {
		t.Errorf("deck %v: want each kind once, Pareto on the sweep card", deck)
	}
	if len(evalKeySpace()) <= 256 {
		t.Errorf("eval key space %d fits the server's 256-entry cache", len(evalKeySpace()))
	}
}

func TestCheckEndToEnd(t *testing.T) {
	good := make(map[string]float64)
	for _, d := range endToEnd {
		good[d.Name] = 1.5
	}
	if err := checkEndToEnd(good); err != nil {
		t.Fatalf("sound figures rejected: %v", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		m := maps.Clone(good)
		m["peak_rss_mb"] = bad
		if err := checkEndToEnd(m); err == nil {
			t.Errorf("peak_rss_mb = %g accepted", bad)
		}
	}
	m := maps.Clone(good)
	delete(m, "setup_s")
	if err := checkEndToEnd(m); err == nil {
		t.Error("a missing setup_s accepted")
	}
}

func TestPinnedDigestStable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the built-ins twice")
	}
	for call := 0; call < 2; call++ {
		s, err := experiments.New(experiments.WithScale(suiteScale), experiments.WithMetrics(telemetry.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		all, err := s.AllContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := builtinDigest(all, workload.Names())
		if err != nil {
			t.Fatal(err)
		}
		if got != pinnedBuiltinDigest {
			t.Fatalf("call %d: digest %s, pinned %s", call, got, pinnedBuiltinDigest)
		}
		for _, d := range all {
			if err := conserved(d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSeriesScaling(t *testing.T) {
	var times, rates series
	times.addTime(10, 2)
	times.addTime(30, 1.5)
	rates.addRate(100, 2)
	if !reflect.DeepEqual(times.measured, []float64{10, 30}) || !reflect.DeepEqual(times.scaled, []float64{5, 20}) {
		t.Errorf("times: measured %v scaled %v", times.measured, times.scaled)
	}
	if rates.scaled[0] != 200 {
		t.Errorf("a rate on a host twice as slow scales to %v, want 200", rates.scaled[0])
	}
	m := map[string]float64{}
	times.setMedian(m, "x")
	if m["x"] != 5 || m[measuredPrefix+"x"] != 10 {
		t.Errorf("setMedian: %v", m)
	}
}

func TestProbeAroundSharesSamples(t *testing.T) {
	var nilProbe *speedProbe
	ran := false
	if s := nilProbe.around(func() { ran = true }); !ran || s != noSlowdown {
		t.Fatalf("nil probe: ran %v, slowdown %v", ran, s)
	}
	p := newSpeedProbe(2)
	s1 := p.around(func() {})
	s2 := p.around(func() {})
	if len(p.samples) != 3 {
		t.Fatalf("two back-to-back units took %d samples, want 3", len(p.samples))
	}
	if s1 != meanSlowdown(p.samples[0], p.samples[1]) || s2 != meanSlowdown(p.samples[1], p.samples[2]) {
		t.Errorf("slowdowns %v %v are not the means of their neighbouring samples %v", s1, s2, p.samples)
	}
	for _, s := range p.samples {
		if !(s.Wall > 0) || !(s.CPU >= 0) {
			t.Errorf("sample %v", s)
		}
	}
}
