// Package telemetry is the observability substrate for the simulation
// pipeline: dependency-free atomic counters, gauges, and log2-bucketed
// histograms, organized into named scopes under a registry that snapshots
// deterministically to text and JSON.
//
// The hot paths (cpu.RunStreamContext, interval.Collector, prefetch.Engine) accumulate
// locally and flush into the default registry once per run/Finish, so
// instrumentation costs nothing per simulated event; coarse-grained callers
// (experiments.Suite, the worker pool) record directly. All metric
// operations are safe for concurrent use; snapshots observe each metric
// atomically (counters are exact, cross-metric consistency is best-effort).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that may move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets covers the full uint64 range: bucket 0 holds zeros, bucket i
// (1..64) holds values in [2^(i-1), 2^i - 1].
const numBuckets = 65

// Histogram counts observations in fixed log2 buckets — the same power-of-
// two framing the interval study itself uses — plus exact count, sum, min,
// and max. Suited to latencies (nanoseconds) and sizes (events, cycles).
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64

	mm       sync.Mutex // guards min/max only
	seen     bool
	min, max uint64
}

// bucketIndex returns the log2 bucket for v: 0 for v == 0, otherwise
// bits.Len64(v) so that bucket i spans [2^(i-1), 2^i - 1].
func bucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBounds returns the inclusive [low, high] value range of bucket i.
func BucketBounds(i int) (low, high uint64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= 64 {
		return 1 << 63, math.MaxUint64
	}
	return 1 << (i - 1), 1<<i - 1
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.mm.Lock()
	if !h.seen || v < h.min {
		h.min = v
	}
	if !h.seen || v > h.max {
		h.max = v
	}
	h.seen = true
	h.mm.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	h.mm.Lock()
	s.Min, s.Max = h.min, h.max
	h.mm.Unlock()
	for i := 0; i < numBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			low, high := BucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Low: low, High: high, Count: c})
		}
	}
	return s
}

// Bucket is one non-empty log2 bucket in a histogram snapshot.
type Bucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram; only non-empty
// buckets appear, in ascending value order.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Scope is a named group of metrics within a registry. Metric accessors
// create on first use and always return the same instance for a name, so
// hot paths may cache the pointer or re-look it up as convenient.
type Scope struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Name returns the scope's name.
func (s *Scope) Name() string { return s.name }

// Counter returns the named counter, creating it at zero on first use.
func (s *Scope) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (s *Scope) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (s *Scope) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.histograms[name]
	if !ok {
		h = &Histogram{}
		s.histograms[name] = h
	}
	return h
}

// snapshot captures the scope under its lock.
func (s *Scope) snapshot() ScopeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ScopeSnapshot{
		Counters:   make(map[string]uint64, len(s.counters)),
		Gauges:     make(map[string]int64, len(s.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.histograms)),
	}
	for name, c := range s.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range s.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range s.histograms {
		out.Histograms[name] = h.Snapshot()
	}
	return out
}

// Registry holds named scopes. The zero value is not usable; call
// NewRegistry, or use the process-wide Default registry.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]*Scope)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the simulation pipeline reports
// into.
func Default() *Registry { return defaultRegistry }

// Scope returns the named scope, creating it on first use.
func (r *Registry) Scope(name string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.scopes[name]
	if !ok {
		s = &Scope{
			name:       name,
			counters:   make(map[string]*Counter),
			gauges:     make(map[string]*Gauge),
			histograms: make(map[string]*Histogram),
		}
		r.scopes[name] = s
	}
	return s
}

// Reset drops every scope and metric; intended for tests and for
// long-running sweeps that want per-phase snapshots.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scopes = make(map[string]*Scope)
}

// ScopeSnapshot is a point-in-time view of one scope's metrics.
type ScopeSnapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot is a point-in-time view of a whole registry, keyed by scope
// name. JSON encoding is deterministic (Go serializes map keys sorted).
type Snapshot map[string]ScopeSnapshot

// Snapshot captures every scope.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	scopes := make([]*Scope, 0, len(r.scopes))
	for _, s := range r.scopes {
		scopes = append(scopes, s)
	}
	r.mu.Unlock()
	out := make(Snapshot, len(scopes))
	for _, s := range scopes {
		out[s.name] = s.snapshot()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as an aligned, deterministic text listing:
// scopes sorted by name, metrics sorted within each scope.
func (s Snapshot) WriteText(w io.Writer) error {
	scopeNames := make([]string, 0, len(s))
	for name := range s {
		scopeNames = append(scopeNames, name)
	}
	sort.Strings(scopeNames)
	for _, scope := range scopeNames {
		sc := s[scope]
		if _, err := fmt.Fprintf(w, "%s:\n", scope); err != nil {
			return err
		}
		for _, name := range sortedKeys(sc.Counters) {
			if _, err := fmt.Fprintf(w, "  %-28s %d\n", name, sc.Counters[name]); err != nil {
				return err
			}
		}
		for _, name := range sortedKeys(sc.Gauges) {
			if _, err := fmt.Fprintf(w, "  %-28s %d\n", name, sc.Gauges[name]); err != nil {
				return err
			}
		}
		for _, name := range sortedKeys(sc.Histograms) {
			h := sc.Histograms[name]
			if _, err := fmt.Fprintf(w, "  %-28s count=%d sum=%d min=%d max=%d mean=%.1f\n",
				name, h.Count, h.Sum, h.Min, h.Max, h.Mean()); err != nil {
				return err
			}
			for _, b := range h.Buckets {
				if _, err := fmt.Fprintf(w, "    [%d, %d]: %d\n", b.Low, b.High, b.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
