package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/server"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

const (
	// serveScale keeps one POSTed-spec simulation to a few tens of ms
	// (about 35 ms on the host of NOTES.md), so cold ad-hoc work is the
	// tail rather than the whole load.
	serveScale = 0.1
	// pinnedCapacity is the serve-mix capacity in requests/s: the median
	// closed-loop rate at two connections on the two-vCPU host the
	// benchmark was written on (NOTES.md). Every run measures capacity
	// again and prints it, with the utilisation it implies.
	pinnedCapacity = 185
	// utilisation is the offered rate's share of pinnedCapacity, an
	// assumption (NOTES.md): the load stays under half the capacity even
	// on a host 2.5 times slower, so latency shows service time more than
	// queueing.
	utilisation = 0.15
	// offeredRPS is the open loop's fixed offered rate. It is the same in
	// every run, so runs and commits are compared under the same load.
	offeredRPS = utilisation * pinnedCapacity
	// latencyLimit is the goodput limit: a request that takes longer, or
	// fails, does not count as served.
	latencyLimit = 250 * time.Millisecond
	// bootReps is how many times a run boots the server; setup_s is the
	// median.
	bootReps = 5
	// capacityShare is the share of the run's seconds the closed-loop
	// capacity measurement takes, on a server of its own.
	capacityShare = 0.1
	// capacityRequests bounds the closed-loop schedule; the measurement
	// stops early if the server answers all of them.
	capacityRequests = 50000
)

// seqHeader carries a request's index in the schedule, so the server
// side can time each request by it.
const seqHeader = "X-Leakbench-Seq"

// booted is a running in-process leakaged. Its handler is server.New's,
// wrapped to time every request from the moment the handler receives it
// until it returns, and to take a probe sample on probePath.
type booted struct {
	suite *experiments.Suite
	reg   *telemetry.Registry
	base  string
	srv   *server.Server
	http  *http.Server
	done  chan error
	probe *speedProbe // nil: probePath takes no sample

	mu       sync.Mutex
	probes   int                // samples taken on probePath so far
	probeCPU time.Duration      // process CPU time they took
	served   map[int]servedTime // by seqHeader
}

// servedTime is one request's time in the server's handler, and how many
// probe samples had been taken on probePath when it started.
type servedTime struct {
	d      time.Duration
	probes int
}

// boot builds a suite, warms it (every built-in simulated), serves it on
// a loopback listener and waits for /readyz. probe takes the samples the
// load generator asks for on probePath.
func boot(ctx context.Context, probe *speedProbe) (*booted, error) {
	reg := telemetry.NewRegistry()
	s, err := experiments.New(experiments.WithScale(serveScale), experiments.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	if _, err := s.AllContext(ctx); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Suite: s, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &booted{suite: s, reg: reg, base: "http://" + ln.Addr().String(), srv: srv,
		done: make(chan error, 1), probe: probe, served: make(map[int]servedTime)}
	b.http = &http.Server{Handler: b.timed(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { b.done <- b.http.Serve(ln) }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(b.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return b, nil
			}
		}
		if time.Now().After(deadline) {
			b.stop()
			return nil, fmt.Errorf("server not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// timed wraps h so that each request carrying seqHeader is timed, and
// serves probePath itself.
func (b *booted) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == probePath {
			b.mu.Lock()
			cpu := processCPU()
			b.probe.sample()
			b.probeCPU += processCPU() - cpu
			b.probes++
			b.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		b.mu.Lock()
		probes := b.probes
		b.mu.Unlock()
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
			b.mu.Lock()
			b.served[seq] = servedTime{d, probes}
			b.mu.Unlock()
		}
	})
}

// servedTimes returns the server-side time of every timed request, and
// the process CPU time the probe samples took.
func (b *booted) servedTimes() (map[int]servedTime, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.served), b.probeCPU
}

// stop drains the server, waits for it to stop serving and releases it.
func (b *booted) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.http.Shutdown(ctx)
	b.srv.Close()
	if serr := <-b.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// bootMedian boots bootReps times, keeps the last server and returns the
// boot times. Each earlier server is drained before the next boot,
// outside the timing, and each boot runs between two probe samples.
func (e *env) bootMedian(ctx context.Context) (*booted, series, error) {
	var b *booted
	var ds series
	for i := 0; i < bootReps; i++ {
		if b != nil {
			if err := b.stop(); err != nil {
				return nil, ds, err
			}
		}
		var d time.Duration
		var err error
		slow := e.probe.around(func() {
			runtime.GC()
			start := time.Now()
			b, err = boot(ctx, nil)
			d = time.Since(start)
		})
		if err != nil {
			return nil, ds, err
		}
		ds.addTime(d.Seconds(), slow.Wall)
	}
	return b, ds, nil
}

// generate runs the load generator in a child process against base and
// returns its raw report. closed selects the closed-loop capacity
// measurement; otherwise the schedule of n requests runs open loop.
func (e *env) generate(ctx context.Context, base string, n int, seconds time.Duration, closed bool) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-drive", base, "-seed", strconv.FormatUint(e.seed, 10),
		"-requests", strconv.Itoa(n), "-seconds", strconv.FormatFloat(seconds.Seconds(), 'g', -1, 64),
		"-closed="+strconv.FormatBool(closed), "-conns", strconv.Itoa(e.workers), "-root", e.root)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return out.Bytes(), nil
}

func decodeGen(raw []byte) (*genResult, error) {
	var g genResult
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("load generator report: %w", err)
	}
	return &g, nil
}

// measureCapacity drives b closed loop at the connection cap and returns
// the requests it answered per second. Any failed answer fails the run:
// the offered rate must not rest on errors.
func (e *env) measureCapacity(ctx context.Context, b *booted) (float64, error) {
	secs := time.Duration(capacityShare * float64(e.seconds))
	raw, err := e.generate(ctx, b.base, capacityRequests, secs, true)
	if err != nil {
		return 0, err
	}
	g, err := decodeGen(raw)
	if err != nil {
		return 0, err
	}
	var last time.Duration
	for i := range g.Responses {
		r := &g.Responses[i]
		if r.Err != "" || r.Status >= 400 {
			return 0, fmt.Errorf("capacity measurement: request %d failed: status %d %s", i, r.Status, r.Err)
		}
		last = max(last, r.Done)
	}
	if len(g.Responses) == 0 || last <= 0 {
		return 0, fmt.Errorf("capacity measurement answered no request")
	}
	return float64(len(g.Responses)) / last.Seconds(), nil
}

// runServeMix drives an in-process server open loop with the seeded mix
// at offeredRPS.
func runServeMix(ctx context.Context, e *env) (map[string]float64, error) {
	// A request runs on one goroutine and the server idles between
	// requests, so the probe runs on one goroutine too. On every CPU it
	// would also count a CPU taken by another process twice over.
	if e.probe != nil {
		e.probe = newSpeedProbe(1)
	}
	specs, err := exampleSpecs(e.root)
	if err != nil {
		return nil, err
	}
	b, setup, err := e.bootMedian(ctx)
	if err != nil {
		return nil, err
	}
	capacity, err := e.measureCapacity(ctx, b)
	if serr := b.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	n := max(1, int(math.Round(offeredRPS*e.seconds.Seconds())))
	sched, err := buildSchedule(e.seed, n, e.seconds, specs)
	if err != nil {
		return nil, err
	}
	e.info("capacity_rps", capacity, "req/s", fmt.Sprintf("closed loop on %d connections; pinned %d", e.workers, pinnedCapacity))
	e.info("utilisation", offeredRPS/capacity, "fraction", fmt.Sprintf("offered %g req/s over measured capacity; pinned %g", offeredRPS, utilisation))
	if e.rec != nil {
		return traceServeMix(ctx, e, sched, n)
	}

	// The load generator pauses every probeEvery of its schedule, and
	// the server's process takes a probe sample while no request is in
	// flight; each request is scaled by the samples on either side of it.
	first := len(e.probe.samples)
	g, u, _, served, err := e.driveChecked(ctx, sched, n)
	if err != nil {
		return nil, err
	}
	samples := e.probe.samples[first:]
	if len(samples) == 0 {
		return nil, fmt.Errorf("the load generator asked for no probe sample")
	}
	slowAt := func(probes int) slowdown {
		if probes < 1 || probes >= len(samples) {
			return medianSlowdown(samples)
		}
		return meanSlowdown(samples[probes-1], samples[probes])
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Latency is the server's time per request: from its handler's start
	// to its end. From the due time, the generator's and the server's
	// wake-ups on the loopback are most of a cheap request's time, and on
	// a shared virtual machine they measure the host (NOTES.md), so the
	// due-time figures are printed and only set goodput.
	var lat, cpuMS series
	var byMode [numModes]series
	var due []float64
	var good int
	var last time.Duration
	for i := range g.Responses {
		r := &g.Responses[i]
		last = max(last, r.Done)
		if r.Err != "" {
			continue
		}
		due = append(due, float64(r.latency().Nanoseconds())/1e6)
		if r.Status < 400 && r.latency() <= latencyLimit {
			good++
		}
		if st, ok := served[i]; ok {
			ms := float64(st.d.Nanoseconds()) / 1e6
			slow := slowAt(st.probes)
			lat.addTime(ms, slow.Wall)
			byMode[sched[i].Mode].addTime(ms, slow.Wall)
		}
	}
	e.check(len(lat.scaled) == len(due), "server timed %d requests, %d were answered", len(lat.scaled), len(due))
	if len(lat.scaled) == 0 {
		return nil, fmt.Errorf("no request was timed by the server")
	}
	cpuMS.addTime(float64(u.CPU.Nanoseconds())/1e6/float64(len(sched))*1000, medianSlowdown(samples).CPU)
	m := map[string]float64{
		// Goodput is set by the fixed offered rate, not by the host's
		// speed, so it is reported as measured.
		"work_per_s":  float64(good) / last.Seconds(),
		"alloc_mb":    float64(u.AllocBytes) / 1e6 / float64(len(sched)) * 1000,
		"peak_rss_mb": rss,
	}
	setup.setMedian(m, "setup_s")
	cpuMS.setMedian(m, "cpu_ms_per_op")
	e.tailMetrics(m, "requests, server side", lat)
	// The mix's shares are assumptions (NOTES.md), and with one request
	// of each kind the median request sits where one kind's times end and
	// the next one's begin. So p50_ms weighs every kind alike: it is the
	// geometric mean of the kinds' medians.
	var kinds, logScaled, logMeasured float64
	for md := range byMode {
		k := &byMode[md]
		if len(k.scaled) == 0 {
			continue
		}
		kinds++
		logScaled += math.Log(median(k.scaled))
		logMeasured += math.Log(median(k.measured))
		e.info("p50_ms."+modeNames[md], median(k.scaled), "ms", fmt.Sprintf("median of %d, server side, scaled to the reference host", len(k.scaled)))
	}
	m["p50_ms"] = math.Exp(logScaled / kinds)
	m[measuredPrefix+"p50_ms"] = math.Exp(logMeasured / kinds)
	e.info("p50_ms.all", median(lat.scaled), "ms", "median over every request, server side, scaled to the reference host")
	e.info("goodput_rps", m["work_per_s"], "req/s",
		fmt.Sprintf("work_per_s: answered within %v of the due time, offered %g req/s", latencyLimit, offeredRPS))
	t := tailOf(due)
	e.info("due.p50_ms", median(due), "ms", "as measured, from the due time to the answer's last byte")
	e.info("due.tail_ms", t.Value, "ms", fmt.Sprintf("p%g of %d, as measured from the due time", t.P, t.N))
	e.info("due.p99_ms", percentile(due, 99), "ms", "as measured from the due time")
	return m, nil
}

// checkResponses counts every request as an operation and checks its
// answer: the expected status, eval answers stable per key (one ETag, one
// savings value) and equal to a direct EvaluateCellContext on the same
// suite, coalesced twins identical, and sweep and Pareto answers
// complete.
func (e *env) checkResponses(ctx context.Context, s *experiments.Suite, sched []plannedReq, resps []response) error {
	if len(resps) != len(sched) {
		return fmt.Errorf("load generator answered %d requests, schedule has %d", len(resps), len(sched))
	}
	etags := make(map[string]string)
	savings := make(map[string]float64)
	for i := range sched {
		p, r := &sched[i], &resps[i]
		if r.Err != "" {
			e.op(fmt.Errorf("%s %s: %s", p.Method, p.Target, r.Err))
			continue
		}
		e.op(nil)
		want := http.StatusOK
		if r.INM {
			want = http.StatusNotModified
		}
		if !e.check(r.Status == want, "%s %s: status %d, want %d", p.Method, p.Target, r.Status, want) {
			continue
		}
		if r.Status == http.StatusNotModified {
			continue
		}
		if !e.check(r.BodyOK, "%s %s: undecodable answer", p.Method, p.Target) {
			continue
		}
		switch p.Mode {
		case modeEvalHot, modeRevalidate, modeEvalMiss:
			if prev, ok := etags[p.Key]; ok {
				e.check(prev == r.ETag && savings[p.Key] == r.Savings,
					"%s: ETag %s, earlier %s", p.Target, r.ETag, prev)
				continue
			}
			etags[p.Key], savings[p.Key] = r.ETag, r.Savings
		case modeSpecEval:
			e.check(r.Savings <= 1, "spec eval: savings %v above 1", r.Savings)
		case modeSweep:
			e.check(r.Points == ladderPoints, "%s: %d points, want %d", p.Target, r.Points, ladderPoints)
		case modePareto, modeCoalesce:
			e.check(r.Points == len(paretoPolicies(0)), "pareto: %d points, want %d", r.Points, len(paretoPolicies(0)))
			if p.Pair > i {
				twin := &resps[p.Pair]
				e.check(twin.Err != "" || twin.Status != http.StatusOK || twin.ETag == r.ETag,
					"coalesced twins differ: %s vs %s", r.ETag, twin.ETag)
			}
		}
	}
	// Direct evaluation of every distinct eval key, on the same suite.
	for i := range sched {
		p := &sched[i]
		got, ok := savings[p.Key]
		if !ok {
			continue
		}
		delete(savings, p.Key)
		tech, err := experiments.ParseTechnology(p.cell.Tech)
		if err != nil {
			return err
		}
		pol, err := experiments.ParsePolicy(p.cell.Policy, tech)
		if err != nil {
			return err
		}
		ev, err := s.EvaluateCellContext(ctx, p.cell.Benchmark, p.cell.Side == "i", tech, pol)
		if err != nil {
			return err
		}
		e.check(ev.Savings == got, "%s: served savings %v, direct %v", p.Target, got, ev.Savings)
	}
	return nil
}

// driveChecked boots a fresh server, drives the schedule against it and
// checks every answer. It returns the generator's report, the server
// process's cost over the drive less the probe samples', the server's
// registry at the end, and each request's time in the server's handler.
func (e *env) driveChecked(ctx context.Context, sched []plannedReq, n int) (*genResult, usage, telemetry.Snapshot, map[int]servedTime, error) {
	b, err := boot(ctx, e.probe)
	if err != nil {
		return nil, usage{}, nil, nil, err
	}
	mark := markUsage()
	raw, err := e.generate(ctx, b.base, n, e.seconds, false)
	u := mark.since()
	snap := b.reg.Snapshot()
	served, probeCPU := b.servedTimes()
	// The probe samples ran in this process during the drive; their CPU
	// time is not the server's.
	u.CPU -= probeCPU
	var g *genResult
	if err == nil {
		g, err = decodeGen(raw)
	}
	if err == nil && g.ProbeErr != "" {
		err = fmt.Errorf("load generator: %s", g.ProbeErr)
	}
	if err == nil {
		err = e.checkResponses(ctx, b.suite, sched, g.Responses)
	}
	if serr := b.stop(); err == nil {
		err = serr
	}
	return g, u, snap, served, err
}

// traceServeMix drives the schedule twice on fresh servers: untraced,
// for the runtime figures and the overhead baseline, then with a span
// per request split into generator wait and client round trip.
func traceServeMix(ctx context.Context, e *env, sched []plannedReq, n int) (map[string]float64, error) {
	m := make(map[string]float64)
	g, mem, _, _, err := e.driveChecked(ctx, sched, n)
	if err != nil {
		return nil, err
	}
	m["runtime.gc_cycles"] = float64(mem.GCCycles)
	m["runtime.gc_pause_s"] = mem.GCPause.Seconds()
	m["runtime.mallocs"] = float64(mem.Mallocs)
	var untraced time.Duration
	var due []float64
	for i := range g.Responses {
		untraced += g.Responses[i].latency()
		if g.Responses[i].Err == "" {
			due = append(due, float64(g.Responses[i].latency().Nanoseconds())/1e6)
		}
	}
	// The open loop's latency as the generator saw it, from each
	// request's due time, as measured; the end-to-end latencies are the
	// server side's.
	m["loadgen.due_p50_ms"] = median(due)
	m["loadgen.due_p99_ms"] = percentile(due, 99)

	g, _, snap, _, err := e.driveChecked(ctx, sched, n)
	if err != nil {
		return nil, err
	}
	resps := g.Responses
	var traced time.Duration
	for i := range resps {
		r := &resps[i]
		traced += r.latency()
		at := func(d time.Duration) time.Time { return g.Start.Add(r.Shift + d) }
		root := e.rec.add("request/"+modeNames[sched[i].Mode], 0, int64(i+1), at(r.Due), at(r.Done))
		e.rec.add("loadgen.wait", root, int64(i+1), at(r.Due), at(r.Sent))
		e.rec.add("client.roundtrip", root, int64(i+1), at(r.Sent), at(r.Done))
	}
	m["trace.overhead_pct"] = (traced.Seconds()/untraced.Seconds() - 1) * 100

	srv := snap["server"].Counters
	lookups := srv["cache/hits"] + srv["cache/misses"]
	m["server.cache_lookups"] = float64(lookups)
	if lookups > 0 {
		m["server.cache_hit_ratio"] = float64(srv["cache/hits"]) / float64(lookups)
	}
	m["server.evictions"] = float64(srv["cache/evictions"])
	m["server.not_modified"] = float64(srv["etag/not_modified"])
	m["server.coalesced_waits"] = float64(srv["coalesce/coalesced_waits"])
	m["server.leader_runs"] = float64(srv["coalesce/leader_runs"])
	m["server.admission_rejects"] = float64(srv["admission/rejected_queue_full"] + srv["admission/rejected_wait_timeout"])
	m["suite.adhoc_sims"] = float64(snap["suite"].Counters["adhoc_sims"])

	var byClass [5][]float64 // hit, 304, eval miss, sweep miss, spec eval
	var lags []float64
	var roundTrip time.Duration
	var counts [numModes]int
	for i := range resps {
		p, r := &sched[i], &resps[i]
		counts[p.Mode]++
		lags = append(lags, float64((r.Sent-r.Due).Nanoseconds())/1e6)
		roundTrip += r.Done - r.Sent
		if r.Err != "" {
			continue
		}
		ms := float64(r.latency().Nanoseconds()) / 1e6
		switch {
		case r.Status == http.StatusNotModified:
			byClass[1] = append(byClass[1], ms)
		case r.XCache == "hit":
			byClass[0] = append(byClass[0], ms)
		case p.Mode == modeEvalMiss:
			byClass[2] = append(byClass[2], ms)
		case p.Mode == modeSweep:
			byClass[3] = append(byClass[3], ms)
		case p.Mode == modeSpecEval:
			byClass[4] = append(byClass[4], ms)
		}
	}
	for i, name := range []string{"server.hit_p50_ms", "server.not_modified_p50_ms",
		"server.eval_miss_p50_ms", "server.sweep_miss_p50_ms", "server.spec_eval_p50_ms"} {
		if len(byClass[i]) > 0 {
			m[name] = median(byClass[i])
		}
	}
	var serverNS uint64
	for _, route := range []string{"/api/v1/eval", "/api/v1/sweep", "/api/v1/pareto"} {
		serverNS += snap["http"].Histograms["latency_ns/"+route].Sum
	}
	m["server.transport_ms"] = (roundTrip.Seconds()*1e3 - float64(serverNS)/1e6) / float64(len(resps))
	m["loadgen.lag_p99_ms"] = percentile(lags, 99)
	m["loadgen.requests"] = float64(len(sched))
	for md, c := range counts {
		m["loadgen.mode_share."+modeNames[md]] = float64(c) / float64(len(sched))
	}

	// Compile cost of the POSTed specs, measured outside the server.
	var compile time.Duration
	for i := range sched {
		if sched[i].Mode != modeSpecEval {
			continue
		}
		var body struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(sched[i].Body, &body); err != nil {
			return nil, err
		}
		t0 := time.Now()
		sp, err := spec.Parse(body.Spec)
		if err == nil {
			_, err = sp.Compile(serveScale)
		}
		compile += time.Since(t0)
		if err != nil {
			return nil, err
		}
	}
	m["spec.compile_s"] = compile.Seconds()
	return m, nil
}
