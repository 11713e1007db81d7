package memo

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counts tallies a Group's events for assertions.
type counts struct{ n [Evict + 1]atomic.Int64 }

func (c *counts) observe(e Event)   { c.n[e].Add(1) }
func (c *counts) get(e Event) int64 { return c.n[e].Load() }
func newGroup(max int) (*Group[string, string], *counts) {
	c := &counts{}
	return New[string, string](max, c.observe), c
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkNoLeak fails if goroutines started during a test outlive it.
func checkNoLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestCoalesces(t *testing.T) {
	checkNoLeak(t)
	g, c := newGroup(0)
	gate := make(chan struct{})
	var runs atomic.Int64
	fn := func() (string, error) {
		runs.Add(1)
		<-gate
		return "shared", nil
	}
	const n = 8
	var wg sync.WaitGroup
	hows := make([]Event, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := g.Do(context.Background(), "k", fn)
			if err != nil || v != "shared" {
				t.Errorf("call %d: %q, %v", i, v, err)
			}
			hows[i] = how
		}()
	}
	waitFor(t, "waiters", func() bool { return c.get(Wait) == n-1 })
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	led := 0
	for _, how := range hows {
		if how == Lead {
			led++
		}
	}
	if led != 1 || c.get(Lead) != 1 {
		t.Errorf("leaders: %d returned, %d observed; want 1", led, c.get(Lead))
	}
}

// TestPanickingLeaderReleasesKey: a panic in fn reaches the leader and
// its waiters as a *PanicError, and the next Do for the key runs fn.
func TestPanickingLeaderReleasesKey(t *testing.T) {
	checkNoLeak(t)
	g, c := newGroup(4)
	entered, gate := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-gate
			panic("boom")
		})
		leaderErr <- err
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (string, error) {
			t.Error("waiter ran fn while the leader was in flight")
			return "", nil
		})
		waiterErr <- err
	}()
	waitFor(t, "waiter", func() bool { return c.get(Wait) == 1 })
	close(gate)
	for who, ch := range map[string]chan error{"leader": leaderErr, "waiter": waiterErr} {
		var err error
		select {
		case err = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked on the panicked run", who)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Errorf("%s error = %v, want *PanicError(boom)", who, err)
		} else if !strings.Contains(string(pe.Stack), "memo_test.go") {
			t.Errorf("%s panic stack does not name the panicking frame:\n%s", who, pe.Stack)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, how, err := g.Do(ctx, "k", func() (string, error) { return "after", nil })
	if err != nil || v != "after" || how != Lead {
		t.Errorf("Do after panic = %q, %v, %v; want a fresh run", v, how, err)
	}
}

// TestGoexitIsAFailure: fn calling runtime.Goexit fails its waiters
// instead of handing them a zero value as a success.
func TestGoexitIsAFailure(t *testing.T) {
	checkNoLeak(t)
	g, _ := newGroup(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = g.Do(context.Background(), "k", func() (string, error) {
			runtime.Goexit()
			return "", nil
		})
	}()
	<-done
	if keys := g.Keys(); len(keys) != 0 {
		t.Errorf("Goexit result retained: %v", keys)
	}
	if v, how, err := g.Do(context.Background(), "k", func() (string, error) { return "ok", nil }); err != nil || v != "ok" || how != Lead {
		t.Errorf("Do after Goexit = %q, %v, %v", v, how, err)
	}
}

// TestWaiterCancel: a waiter that gives up returns its own context error
// without disturbing the leader.
func TestWaiterCancel(t *testing.T) {
	checkNoLeak(t)
	g, c := newGroup(0)
	entered, gate := make(chan struct{}), make(chan struct{})
	leaderRes := make(chan string, 1)
	go func() {
		v, _, err := g.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-gate
			return "done", nil
		})
		if err != nil {
			t.Errorf("leader failed: %v", err)
		}
		leaderRes <- v
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", nil)
		waiterErr <- err
	}()
	waitFor(t, "waiter", func() bool { return c.get(Wait) == 1 })
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want Canceled", err)
	}
	close(gate)
	if v := <-leaderRes; v != "done" {
		t.Errorf("leader result = %q, want done", v)
	}
	// An already-cancelled caller neither leads nor waits.
	if _, how, err := g.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) || how != Miss {
		t.Errorf("cancelled Do = %v, %v; want Miss, Canceled", how, err)
	}
}

// TestFailedLeaderRetry: when the leader fails, a waiter retries and
// leads the next run; the failure is not retained.
func TestFailedLeaderRetry(t *testing.T) {
	checkNoLeak(t)
	g, c := newGroup(4)
	entered, gate := make(chan struct{}), make(chan struct{})
	errLeader := errors.New("leader failed")
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (string, error) {
			close(entered)
			<-gate
			return "", errLeader
		})
		leaderErr <- err
	}()
	<-entered
	type result struct {
		v   string
		how Event
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, how, err := g.Do(context.Background(), "k", func() (string, error) { return "retried", nil })
		waiter <- result{v, how, err}
	}()
	waitFor(t, "waiter", func() bool { return c.get(Wait) == 1 })
	close(gate)
	if err := <-leaderErr; !errors.Is(err, errLeader) {
		t.Errorf("leader error = %v", err)
	}
	if r := <-waiter; r.err != nil || r.v != "retried" || r.how != Lead {
		t.Errorf("waiter = %+v, want a retried run it led", r)
	}
	if got := c.get(Lead); got != 2 {
		t.Errorf("leads = %d, want 2", got)
	}
	if v, how, _ := g.Do(context.Background(), "k", nil); v != "retried" || how != Hit {
		t.Errorf("retained = %q, %v", v, how)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	g, c := newGroup(2)
	ctx := context.Background()
	put := func(k string) {
		t.Helper()
		if _, how, err := g.Do(ctx, k, func() (string, error) { return k, nil }); err != nil || how != Lead {
			t.Fatalf("put %s: %v, %v", k, how, err)
		}
	}
	put("a")
	put("b")
	if _, how, _ := g.Do(ctx, "a", nil); how != Hit { // a is now most recent
		t.Fatalf("a: %v, want Hit", how)
	}
	put("c") // evicts b
	if got, want := g.Keys(), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want %v", got, want)
	}
	if c.get(Store) != 3 || c.get(Evict) != 1 || c.get(Hit) != 1 || c.get(Miss) != 3 {
		t.Errorf("events: store %d evict %d hit %d miss %d; want 3 1 1 3",
			c.get(Store), c.get(Evict), c.get(Hit), c.get(Miss))
	}
}

func TestZeroMaxKeepsNothing(t *testing.T) {
	g, c := newGroup(0)
	var runs int
	fn := func() (string, error) { runs++; return "v", nil }
	for i := 0; i < 3; i++ {
		if _, how, err := g.Do(context.Background(), "k", fn); err != nil || how != Lead {
			t.Fatalf("Do %d: %v, %v", i, how, err)
		}
	}
	if runs != 3 || len(g.Keys()) != 0 || c.get(Store) != 0 || c.get(Hit) != 0 {
		t.Errorf("runs %d, keys %v, stores %d, hits %d; want 3, [], 0, 0",
			runs, g.Keys(), c.get(Store), c.get(Hit))
	}
}
