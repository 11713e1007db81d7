// Package memo computes each key's value at most once at a time and keeps
// the newest results: a keyed singleflight in front of a bounded LRU.
//
// Concurrent Do calls for one key share one run of fn. The first caller
// leads; the rest wait on its result or on their own context, whichever
// ends first. A leader that fails does not poison its waiters — its
// failure may be its own cancelled context — so each waiter loops, checks
// the retained set again, and the next one through leads. A leader that
// panics publishes a *PanicError to itself and its waiters alike: the
// run is published from a defer, so no panic can wedge a key.
//
// The package imports no telemetry. A Group reports what happens through
// an optional observer, and Do returns how its own call was served.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// Event is one thing a Do call observed.
type Event uint8

const (
	Hit   Event = iota // a lookup found the key retained
	Miss               // a lookup did not find the key retained
	Lead               // the caller ran fn
	Wait               // the caller started waiting on another caller's run
	Store              // a successful run's result was retained
	Evict              // retaining a result dropped the least recently used entry
)

// PanicError is a panic recovered from fn. A nil Value means fn called
// runtime.Goexit.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("memo: fn panicked: %v", e.Value) }

// call is one in-progress run; the leader closes done after publishing v
// and err, and waiters read them only after <-done.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// entry is the LRU list payload.
type entry[K comparable, V any] struct {
	key K
	v   V
}

// Group is a keyed singleflight with an LRU of at most max retained
// results. It is safe for concurrent use.
type Group[K comparable, V any] struct {
	max     int
	observe func(Event)

	mu    sync.Mutex
	calls map[K]*call[V]
	lru   *list.List // of *entry[K, V]; front = most recently used
	items map[K]*list.Element
}

// New builds a Group retaining at most max results; max <= 0 retains
// nothing, leaving only the coalescing. observe, if non-nil, is called
// synchronously with each Event as it happens, never under the Group's
// lock.
func New[K comparable, V any](max int, observe func(Event)) *Group[K, V] {
	if observe == nil {
		observe = func(Event) {}
	}
	return &Group[K, V]{
		max:     max,
		observe: observe,
		calls:   make(map[K]*call[V]),
		lru:     list.New(),
		items:   make(map[K]*list.Element),
	}
}

// Do returns the value for key: the retained one if there is one,
// otherwise the result of one run of fn shared with every concurrent
// caller for key. fn must honor the leader's context; a waiter whose own
// ctx ends first returns ctx.Err() without disturbing the run. Only
// successful results are retained. The returned Event says how this call
// was served: Hit, Lead or Wait (Miss when ctx ended before either).
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Event, error) {
	var zero V
	for {
		g.mu.Lock()
		if el, ok := g.items[key]; ok {
			g.lru.MoveToFront(el)
			v := el.Value.(*entry[K, V]).v
			g.mu.Unlock()
			g.observe(Hit)
			return v, Hit, nil
		}
		c, running := g.calls[key]
		err := ctx.Err()
		if !running && err == nil {
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
		}
		g.mu.Unlock()
		g.observe(Miss)
		if err != nil {
			return zero, Miss, err
		}
		if !running {
			g.observe(Lead)
			v, err := g.lead(key, c, fn)
			return v, Lead, err
		}
		g.observe(Wait)
		select {
		case <-c.done:
		case <-ctx.Done():
			return zero, Wait, ctx.Err()
		}
		if _, panicked := c.err.(*PanicError); c.err == nil || panicked {
			return c.v, Wait, c.err
		}
		// The leader failed, perhaps on its own cancelled context: retry.
	}
}

// lead runs fn for key and publishes its outcome to c's waiters. The
// publication is deferred so that a panicking fn still releases the key.
func (g *Group[K, V]) lead(key K, c *call[V], fn func() (V, error)) (v V, err error) {
	returned := false
	defer func() {
		if !returned {
			err = &PanicError{Value: recover(), Stack: debug.Stack()}
		}
		c.v, c.err = v, err
		stored, evicted := g.finish(key, c)
		close(c.done)
		if stored {
			g.observe(Store)
		}
		if evicted {
			g.observe(Evict)
		}
	}()
	v, err = fn()
	returned = true
	return v, err
}

// finish retires key's run and retains a successful result, dropping the
// LRU tail past the bound.
func (g *Group[K, V]) finish(key K, c *call[V]) (stored, evicted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.calls, key)
	if c.err != nil || g.max <= 0 {
		return false, false
	}
	g.items[key] = g.lru.PushFront(&entry[K, V]{key: key, v: c.v})
	if g.lru.Len() <= g.max {
		return true, false
	}
	tail := g.lru.Back()
	g.lru.Remove(tail)
	delete(g.items, tail.Value.(*entry[K, V]).key)
	return true, true
}

// Keys returns the retained keys, most recently used first.
func (g *Group[K, V]) Keys() []K {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]K, 0, g.lru.Len())
	for el := g.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}
