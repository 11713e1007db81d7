package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakbound/internal/memo"
	"leakbound/internal/telemetry"
)

// newTestFlights builds the server's result memo with retention off, so
// only its coalescing is under test.
func newTestFlights() (*memo.Group[string, *cachedResult], *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newResults(0, reg.Scope("server")), reg
}

// TestFlightGroupCoalesces: N concurrent calls on one key run fn once and
// all observe the leader's result.
func TestFlightGroupCoalesces(t *testing.T) {
	fg, reg := newTestFlights()
	var runs atomic.Int64
	gate := make(chan struct{})
	fn := func() (*cachedResult, error) {
		runs.Add(1)
		<-gate
		return &cachedResult{body: []byte("shared")}, nil
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([]*cachedResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = fg.Do(context.Background(), "k", fn)
		}(i)
	}
	// Let every goroutine reach the flight before the leader finishes.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Scope("server").Counter("coalesce/coalesced_waits").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters coalesced",
				reg.Scope("server").Counter("coalesce/coalesced_waits").Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if string(results[i].body) != "shared" {
			t.Fatalf("call %d got %q", i, results[i].body)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := reg.Scope("server").Counter("coalesce/leader_runs").Value(); got != 1 {
		t.Errorf("leader_runs = %d, want 1", got)
	}
}

// TestFlightGroupDistinctKeys run independently.
func TestFlightGroupDistinctKeys(t *testing.T) {
	fg, _ := newTestFlights()
	var runs atomic.Int64
	fn := func() (*cachedResult, error) {
		runs.Add(1)
		return &cachedResult{}, nil
	}
	for _, k := range []string{"a", "b", "a"} {
		if _, _, err := fg.Do(context.Background(), k, fn); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls never coalesce: the flight is gone once Do returns.
	if got := runs.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3", got)
	}
}

// TestFlightGroupWaiterRetriesAfterLeaderFailure: a leader cancelled by
// its own client must not poison waiters — a surviving waiter retries and
// becomes the next leader.
func TestFlightGroupWaiterRetriesAfterLeaderFailure(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var calls atomic.Int64
	fn := func() (*cachedResult, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		}
		return &cachedResult{body: []byte("retried")}, nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := fg.Do(leaderCtx, "k", fn)
		leaderErr <- err
	}()
	<-leaderIn
	waiterRes := make(chan *cachedResult, 1)
	go func() {
		res, _, err := fg.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("waiter failed: %v", err)
		}
		waiterRes <- res
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want Canceled", err)
	}
	select {
	case res := <-waiterRes:
		if string(res.body) != "retried" {
			t.Errorf("waiter result = %q, want %q", res.body, "retried")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never recovered from leader failure")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("fn ran %d times, want 2 (failed leader + retrying waiter)", got)
	}
}

// TestFlightGroupWaiterCancel: a waiter that gives up returns its own
// context error without disturbing the leader.
func TestFlightGroupWaiterCancel(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	fn := func() (*cachedResult, error) {
		close(leaderIn)
		<-gate
		return &cachedResult{body: []byte("done")}, nil
	}
	leaderRes := make(chan *cachedResult, 1)
	go func() {
		res, _, err := fg.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("leader failed: %v", err)
		}
		leaderRes <- res
	}()
	<-leaderIn
	wctx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := fg.Do(wctx, "k", fn)
		waiterErr <- err
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	cancelWaiter()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want Canceled", err)
	}
	close(gate)
	if res := <-leaderRes; string(res.body) != "done" {
		t.Errorf("leader result = %q, want %q", res.body, "done")
	}
}

// TestFlightGroupPanickingLeader: a compute that panics releases its key.
// The waiter gets the panic as an error instead of blocking on the dead
// leader, and the next request for the key computes afresh.
func TestFlightGroupPanickingLeader(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn, gate := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				leaderErr <- fmt.Errorf("panic escaped Do: %v", r)
			}
		}()
		_, _, err := fg.Do(context.Background(), "k", func() (*cachedResult, error) {
			close(leaderIn)
			<-gate
			panic("boom")
		})
		leaderErr <- err
	}()
	<-leaderIn
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := fg.Do(context.Background(), "k", func() (*cachedResult, error) {
			return nil, errors.New("waiter led while the leader was in flight")
		})
		waiterErr <- err
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	close(gate)
	for who, ch := range map[string]chan error{"leader": leaderErr, "waiter": waiterErr} {
		select {
		case err := <-ch:
			var pe *memo.PanicError
			if !errors.As(err, &pe) {
				t.Errorf("%s error = %v, want *memo.PanicError", who, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked on the panicked flight", who)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, _, err := fg.Do(ctx, "k", func() (*cachedResult, error) {
		return &cachedResult{body: []byte("after")}, nil
	})
	if err != nil || string(res.body) != "after" {
		t.Fatalf("Do after a panicking leader: %v; the key is wedged", err)
	}
}

// TestComputePanicIs500: a panicking compute answers 500, and a repeat
// request runs the compute again rather than hanging on the dead flight.
func TestComputePanicIs500(t *testing.T) {
	s, reg := newTestServer(t, 0.02, nil)
	var calls atomic.Int64
	s.handleCompute("GET /fragile", "/fragile", weightLight,
		func(context.Context, *http.Request) ([]byte, string, error) {
			if calls.Add(1) == 1 {
				panic("boom")
			}
			return []byte("ok"), "text/plain", nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _, body := get(t, ts.Client(), ts.URL+"/fragile", nil); status != http.StatusInternalServerError {
		t.Errorf("panicking compute: %d %s, want 500", status, body)
	}
	if status, _, body := get(t, ts.Client(), ts.URL+"/fragile", nil); status != http.StatusOK || string(body) != "ok" {
		t.Errorf("repeat request: %d %q, want 200 ok", status, body)
	}
	if got := reg.Scope("server").Counter("internal_errors").Value(); got != 1 {
		t.Errorf("internal_errors = %d, want 1", got)
	}
	// The semaphore unit the panicking compute held came back.
	if got := reg.Scope("server").Gauge("admission/inflight_units").Value(); got != 0 {
		t.Errorf("admission inflight_units = %d after both requests, want 0", got)
	}
}
