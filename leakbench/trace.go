package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the recorder was created; Parent is 0 for a root span. Spans of
// one run or request share Run.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pass nil and pay one nil check per
// call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, run int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span, for intervals measured outside the
// recorder (such as a request's wait before its due time was met).
func (r *recorder) add(name string, parent, run int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may nest, overlap
// one another (parallel work) or run past the parent's end; only their
// union within the parent counts.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, curLo, curHi int64
		curHi = -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = s.Dur() - time.Duration(covered)
	}
	return out
}

// totals sums duration and self time by span name.
func totals(spans []Span) (dur, self map[string]time.Duration) {
	st := selfTimes(spans)
	dur = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		dur[s.Name] += s.Dur()
		self[s.Name] += st[s.ID]
	}
	return dur, self
}

// spanFile is the on-disk form of a traced run: the spans, and their
// duration and self time summed by name.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Host     hostFacts        `json:"host"`
	DurNS    map[string]int64 `json:"dur_ns_by_name"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
	Spans    []Span           `json:"spans"`
}

// writeSpans writes the spans to path and reads the file back, so a run
// whose span file does not parse fails instead of passing silently.
func writeSpans(path string, f spanFile) error {
	dur, self := totals(f.Spans)
	f.DurNS, f.SelfNS = make(map[string]int64, len(dur)), make(map[string]int64, len(self))
	for k, v := range dur {
		f.DurNS[k], f.SelfNS[k] = v.Nanoseconds(), self[k].Nanoseconds()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var got spanFile
	if err := json.Unmarshal(back, &got); err != nil {
		return fmt.Errorf("span file %s does not parse: %w", path, err)
	}
	if len(got.Spans) != len(f.Spans) {
		return fmt.Errorf("span file %s: read %d spans, wrote %d", path, len(got.Spans), len(f.Spans))
	}
	return nil
}
