package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/power"
	"leakbound/internal/workload"
	"leakbound/internal/workload/spec"
)

// The serve-mix load generator. It runs in a process of its own (the
// benchmark re-executes itself with -drive), so the server process's CPU,
// allocation and resident-set figures are the server's alone. Parent and
// generator build the same schedule from the same seed and count.

const (
	// genWorkers bounds the generator's in-flight requests; the transport
	// still allows only GOMAXPROCS connections.
	genWorkers = 64
	// clientTimeout fails a request that gets no answer in time.
	clientTimeout = 10 * time.Second
	// revalidateLag is how many requests after a hot key's request a
	// revalidation of it may come, so its ETag is usually known by then.
	revalidateLag = 64
	// zipfS is the skew of eval-key popularity: the textbook Zipf law,
	// an assumption (NOTES.md).
	zipfS = 1.0
	// probePath is the benchmark's own route in the server's process. A
	// GET takes one host-speed probe sample there (probe.go), and the
	// open loop sends one while no request is in flight.
	probePath = "/leakbench/probe"
	// probeEvery is the schedule time between two probe samples of the
	// open loop.
	probeEvery = time.Second
)

// mode is a request's kind in the mix.
type mode int

const (
	modeEvalHot mode = iota
	modeRevalidate
	modeEvalMiss
	modeSweep
	modePareto
	modeSpecEval
	modeCoalesce
	numModes
)

var modeNames = [numModes]string{"eval_hot", "revalidate", "eval_miss", "sweep", "pareto", "spec_eval", "coalesce"}

// deck is the mix: one card per request kind the workload must exercise,
// shuffled anew for each block of arrivals, so every kind has the same
// share. Nothing in the repository records real traffic, so no kind is
// weighted above another (NOTES.md). Sweep and Pareto misses are one
// kind: the card alternates between them from block to block. The
// coalesce card brings two identical new Pareto queries, due at the same
// instant: a Pareto query computes for a millisecond or two, long enough
// for the second to find the first in flight, and short enough not to
// hold both connections for long.
var deck = [...]mode{modeEvalHot, modeRevalidate, modeEvalMiss, modeSweep, modeSpecEval, modeCoalesce}

// plannedReq is one scheduled request. Everything in it derives from the
// seed and the request count; only the If-None-Match value of a
// revalidation is taken at run time, from the ETag an earlier response
// returned.
type plannedReq struct {
	Due    time.Duration
	Mode   mode
	Method string
	Target string // path and query
	Body   []byte
	// Key identifies an eval cell (benchmark, side, technology, policy)
	// for the per-key checks; empty for other requests.
	Key  string
	cell evalCell
	// Pair is the index of the other half of a coalesce pair, or -1.
	Pair int
	// Seq is the request's index in the schedule.
	Seq int
}

type evalCell struct {
	Benchmark, Side, Tech, Policy string
}

func (c evalCell) target() string {
	q := url.Values{"benchmark": {c.Benchmark}, "cache": {c.Side}, "tech": {c.Tech}, "policy": {c.Policy}}
	return "/api/v1/eval?" + q.Encode()
}

// evalKeySpace lists the eval cells the Zipf draws pick from: every
// built-in benchmark, side and technology with 48 policies, far more than
// the server's 256-entry result cache holds, so hot keys hit, the tail
// misses and entries are evicted.
func evalKeySpace() []evalCell {
	policies := []string{"opt-drowsy", "opt-hybrid", "prefetch-a", "prefetch-b",
		"opt-hybrid-wb", "opt-hybrid-dead", "coloring", "waymemo"}
	for _, scheme := range []string{"opt-sleep", "sleep-decay", "amc", "opt-hybrid"} {
		for _, theta := range []int{500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000} {
			policies = append(policies, fmt.Sprintf("%s@%d", scheme, theta))
		}
	}
	var cells []evalCell
	for _, b := range workload.Names() {
		for _, side := range []string{"i", "d"} {
			for _, t := range power.Technologies() {
				for _, p := range policies {
					cells = append(cells, evalCell{b, side, t.Name, p})
				}
			}
		}
	}
	return cells
}

// zipfCDF returns the cumulative popularity of ranks 1..n under skew s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// buildSchedule derives the open-loop schedule from seed: at least n
// requests (n+1 when the last card brings a twin), with Poisson arrival
// times scaled so the last one is due at the end of the run. The
// requests themselves (order, modes, keys, bodies) depend on seed alone:
// a longer schedule starts with the same requests as a shorter one. Every
// key a miss, sweep, Pareto or spec request uses is new.
func buildSchedule(seed uint64, n int, seconds time.Duration, specs []*spec.Spec) ([]plannedReq, error) {
	rng := rand.New(rand.NewPCG(seed, subSeed(seed, streamSchedule, 0)))
	cells := evalKeySpace()
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	cdf := zipfCDF(len(cells), zipfS)
	cards := deck
	techs := power.Technologies()
	sides := []string{"i", "d"}
	names := workload.Names()
	randCell := func(policy string) evalCell {
		return evalCell{names[rng.IntN(len(names))], sides[rng.IntN(2)], techs[rng.IntN(len(techs))].Name, policy}
	}

	var out []plannedReq
	var at []float64 // arrival times at unit rate, one per request
	var hot []int    // indices of eval_hot requests, ascending
	var now float64
	for card := 0; len(out) < n; card++ {
		if card%len(cards) == 0 {
			rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
		}
		now += rng.ExpFloat64()
		i := len(out)
		m := cards[card%len(cards)]
		if m == modeSweep && (card/len(cards))%2 == 1 {
			m = modePareto
		}
		r := plannedReq{Mode: m, Method: http.MethodGet, Pair: -1}
		if m == modeRevalidate {
			k := sort.SearchInts(hot, i-revalidateLag+1)
			if k == 0 {
				m, r.Mode = modeEvalHot, modeEvalHot
			} else {
				prev := out[hot[rng.IntN(k)]]
				r.cell, r.Key, r.Target = prev.cell, prev.Key, prev.Target
			}
		}
		switch m {
		case modeEvalHot:
			r.cell = cells[sort.SearchFloat64s(cdf, rng.Float64())]
			r.Target = r.cell.target()
			r.Key = r.Target
			hot = append(hot, i)
		case modeEvalMiss:
			r.cell = randCell(fmt.Sprintf("opt-sleep@%d", 1_000_000+i))
			r.Target = r.cell.target()
			r.Key = r.Target
		case modeSweep:
			from := 1000 + i
			q := url.Values{
				"policy": {[]string{"opt-sleep", "sleep-decay", "opt-hybrid"}[rng.IntN(3)]},
				"cache":  {sides[rng.IntN(2)]}, "tech": {techs[rng.IntN(len(techs))].Name},
				"from": {fmt.Sprint(from)}, "to": {fmt.Sprint(from * 64)}, "points": {fmt.Sprint(ladderPoints)},
			}
			r.Target = "/api/v1/sweep?" + q.Encode()
		case modePareto, modeCoalesce:
			body, err := json.Marshal(map[string]any{
				"cache": sides[rng.IntN(2)], "tech": techs[rng.IntN(len(techs))].Name,
				"policies": paretoPolicies(i),
			})
			if err != nil {
				return nil, err
			}
			r.Method, r.Target, r.Body = http.MethodPost, "/api/v1/pareto", body
		case modeSpecEval:
			sp := *specs[(card/len(cards))%len(specs)]
			sp.Seed = rng.Uint64()
			body, err := json.Marshal(map[string]any{
				"spec": json.RawMessage(sp.Canonical()), "cache": sides[rng.IntN(2)],
				"tech": techs[rng.IntN(len(techs))].Name, "policy": "opt-hybrid",
			})
			if err != nil {
				return nil, err
			}
			r.Method, r.Target, r.Body = http.MethodPost, "/api/v1/eval", body
		}
		if m == modeCoalesce {
			r.Pair = i + 1
			twin := r
			twin.Pair = i
			out = append(out, r, twin)
			at = append(at, now, now)
			continue
		}
		out = append(out, r)
		at = append(at, now)
	}
	for i := range out {
		out[i].Due = time.Duration(at[i] / now * float64(seconds))
		out[i].Seq = i
	}
	return out, nil
}

// paretoPolicies is a Pareto population made new by u.
func paretoPolicies(u int) []string {
	return []string{
		fmt.Sprintf("opt-sleep@%d", 2000+u), fmt.Sprintf("sleep-decay@%d", 3000+u),
		fmt.Sprintf("amc@%d", 4000+u), "opt-hybrid", "opt-drowsy", "prefetch-b",
	}
}

// response is what the generator saw for one planned request. Times are
// offsets from the generator's start. The generator decodes each body
// itself and reports only what the checks need.
type response struct {
	// Shift is how far the probe pauses before the request had moved the
	// schedule's origin; the other times count from the moved origin.
	Shift  time.Duration `json:"shift_ns"`
	Due    time.Duration `json:"due_ns"`
	Sent   time.Duration `json:"sent_ns"`
	Done   time.Duration `json:"done_ns"`
	Status int           `json:"status"`
	ETag   string        `json:"etag,omitempty"`
	XCache string        `json:"x_cache,omitempty"`
	INM    bool          `json:"inm,omitempty"` // an If-None-Match was sent
	// BodyOK reports that a 200 body decoded as its route's answer, with
	// a finite savings value for an eval.
	BodyOK  bool    `json:"body_ok"`
	Savings float64 `json:"savings"` // eval answers
	Points  int     `json:"points"`  // sweep and Pareto answers
	Err     string  `json:"err,omitempty"`
}

func (r *response) latency() time.Duration { return r.Done - r.Due }

// genResult is the generator's report: its start on the wall clock and
// one response per request it sent, in schedule order.
type genResult struct {
	Start     time.Time  `json:"start"`
	Responses []response `json:"responses"`
	// ProbeErr is the first failed probe request of the open loop.
	ProbeErr string `json:"probe_err,omitempty"`
}

// etagBook remembers the first ETag seen per eval key, for
// revalidations.
type etagBook struct {
	mu sync.Mutex
	m  map[string]string
}

func (b *etagBook) get(k string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[k]
	return v, ok
}

func (b *etagBook) putIfAbsent(k, v string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[k]; !ok {
		b.m[k] = v
	}
}

// runGenerator is the generator process: it rebuilds the schedule of n
// requests, drives it against base over at most conns connections and
// writes a genResult to out. Open loop, each request is sent at its due
// time whether or not earlier ones have finished. Closed loop (used to
// measure capacity), each connection sends the next request as soon as
// its last one is answered, until the run's time is up.
func runGenerator(ctx context.Context, root, base string, seed uint64, n int, seconds time.Duration, closed bool, conns int, out io.Writer) error {
	specs, err := exampleSpecs(root)
	if err != nil {
		return err
	}
	sched, err := buildSchedule(seed, n, seconds, specs)
	if err != nil {
		return err
	}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	g := &generator{
		client: &http.Client{Transport: tr, Timeout: clientTimeout},
		base:   base,
		book:   &etagBook{m: make(map[string]string)},
	}
	var res genResult
	if closed {
		res = g.closedLoop(ctx, sched, conns, seconds)
	} else {
		res = g.openLoop(ctx, sched)
	}
	return json.NewEncoder(out).Encode(res)
}

type generator struct {
	client *http.Client
	base   string
	book   *etagBook
}

// openLoop hands each request to a worker at its due time; latency counts
// from the due time, so a stall also delays the requests due after it.
// Before the first request, after the last, and every probeEvery of
// schedule time in between, it lets every request in flight finish and
// asks the server's process for a probe sample. Such a pause moves the
// origin of the rest of the schedule, so no latency includes it.
func (g *generator) openLoop(ctx context.Context, sched []plannedReq) genResult {
	out := make([]response, len(sched))
	type job struct {
		i      int
		origin time.Time
	}
	jobs := make(chan job)
	var workers, inflight sync.WaitGroup
	start := time.Now()
	for w := 0; w < genWorkers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				out[j.i] = g.send(ctx, &sched[j.i], j.origin, sched[j.i].Due)
				out[j.i].Shift = j.origin.Sub(start)
				inflight.Done()
			}
		}()
	}
	res := genResult{Start: start}
	origin := start
	pause := func() {
		t := time.Now()
		inflight.Wait()
		if err := g.probe(ctx); err != nil && res.ProbeErr == "" {
			res.ProbeErr = err.Error()
		}
		origin = origin.Add(time.Since(t))
	}
	var nextProbe time.Duration
	for i := range sched {
		if sched[i].Due >= nextProbe {
			pause()
			nextProbe += probeEvery
		}
		if d := time.Until(origin.Add(sched[i].Due)); d > 0 {
			time.Sleep(d)
		}
		inflight.Add(1)
		jobs <- job{i, origin}
	}
	pause()
	close(jobs)
	workers.Wait()
	res.Responses = out
	return res
}

// probe asks the server's process for one probe sample.
func (g *generator) probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+probePath, nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("probe: status %d", resp.StatusCode)
	}
	return nil
}

// closedLoop keeps conns requests in flight, in schedule order, until
// seconds have passed or the schedule runs out. The requests answered form
// a prefix of the schedule; each is due when it is sent.
func (g *generator) closedLoop(ctx context.Context, sched []plannedReq, conns int, seconds time.Duration) genResult {
	out := make([]response, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < seconds {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				out[i] = g.send(ctx, &sched[i], start, time.Since(start))
			}
		}()
	}
	wg.Wait()
	return genResult{Start: start, Responses: out[:min(int(next.Load()), len(sched))]}
}

func (g *generator) send(ctx context.Context, p *plannedReq, start time.Time, due time.Duration) response {
	r := response{Due: due, Sent: time.Since(start)}
	fail := func(err error) response {
		r.Err, r.Done = err.Error(), time.Since(start)
		return r
	}
	var body io.Reader
	if p.Body != nil {
		body = bytes.NewReader(p.Body)
	}
	req, err := http.NewRequestWithContext(ctx, p.Method, g.base+p.Target, body)
	if err != nil {
		return fail(err)
	}
	if p.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(seqHeader, strconv.Itoa(p.Seq))
	if p.Mode == modeRevalidate {
		if etag, ok := g.book.get(p.Key); ok {
			req.Header.Set("If-None-Match", etag)
			r.INM = true
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return fail(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	r.Done = time.Since(start)
	r.Status = resp.StatusCode
	r.ETag, r.XCache = resp.Header.Get("ETag"), resp.Header.Get("X-Cache")
	if r.Status == http.StatusOK {
		r.BodyOK, r.Savings, r.Points = decodeBody(p.Mode, raw)
		if p.Key != "" && r.ETag != "" {
			g.book.putIfAbsent(p.Key, r.ETag)
		}
	}
	return r
}

// decodeBody reads what the checks need from a 200 answer.
func decodeBody(m mode, raw []byte) (ok bool, savings float64, points int) {
	switch m {
	case modeSweep:
		var body struct {
			Points []experiments.SweepPoint `json:"points"`
		}
		if json.Unmarshal(raw, &body) != nil {
			return false, 0, 0
		}
		return true, 0, len(body.Points)
	case modePareto, modeCoalesce:
		var body struct {
			Points []experiments.ParetoPoint `json:"points"`
		}
		if json.Unmarshal(raw, &body) != nil {
			return false, 0, 0
		}
		return true, 0, len(body.Points)
	default:
		var ev experiments.CellEvaluation
		if json.Unmarshal(raw, &ev) != nil || math.IsNaN(ev.Savings) || math.IsInf(ev.Savings, 0) {
			return false, 0, 0
		}
		return true, ev.Savings, 0
	}
}
