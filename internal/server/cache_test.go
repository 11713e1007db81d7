package server

import (
	"context"
	"errors"
	"net/url"
	"testing"

	"leakbound/internal/memo"
	"leakbound/internal/telemetry"
)

func newTestCache(max int) (*memo.Group[string, *cachedResult], *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newResults(max, reg.Scope("server")), reg
}

func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	a, _ := url.ParseQuery("cache=i&tech=70nm&benchmark=gzip")
	b, _ := url.ParseQuery("benchmark=gzip&tech=70nm&cache=i")
	if ka, kb := canonicalKey("/eval", a), canonicalKey("/eval", b); ka != kb {
		t.Errorf("reordered queries produced different keys: %q vs %q", ka, kb)
	}
	// Repeated values are sorted too.
	c, _ := url.ParseQuery("x=2&x=1")
	d, _ := url.ParseQuery("x=1&x=2")
	if kc, kd := canonicalKey("/p", c), canonicalKey("/p", d); kc != kd {
		t.Errorf("reordered repeated values differ: %q vs %q", kc, kd)
	}
	if k := canonicalKey("/p", nil); k != "/p" {
		t.Errorf("empty query key = %q, want bare path", k)
	}
	// Distinct values must not collide.
	e, _ := url.ParseQuery("cache=i")
	f, _ := url.ParseQuery("cache=d")
	if canonicalKey("/p", e) == canonicalKey("/p", f) {
		t.Error("distinct queries collided")
	}
}

func TestEtagMatch(t *testing.T) {
	etag := etagFor([]byte("body"))
	cases := []struct {
		header string
		want   bool
	}{
		{etag, true},
		{"*", true},
		{`"other", ` + etag, true},
		{"W/" + etag, true},
		{`"other"`, false},
		{"", false},
	}
	for _, c := range cases {
		if got := etagMatch(c.header, etag); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	if etagFor([]byte("a")) == etagFor([]byte("b")) {
		t.Error("distinct bodies share an ETag")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c, reg := newTestCache(2)
	put := func(k, body string) {
		t.Helper()
		if _, how, err := c.Do(context.Background(), k, func() (*cachedResult, error) {
			return &cachedResult{body: []byte(body)}, nil
		}); err != nil || how != memo.Lead {
			t.Fatalf("put %s: %v, %v", k, how, err)
		}
	}
	put("a", "a")
	put("b", "b")
	if !cached(c, "a") { // refresh a: now b is least recent
		t.Fatal("a missing before eviction")
	}
	put("c", "c") // evicts b
	if cached(c, "b") {
		t.Error("b survived past the LRU bound")
	}
	for _, k := range []string{"a", "c"} {
		if !cached(c, k) {
			t.Errorf("%s evicted out of LRU order", k)
		}
	}
	if n := len(c.Keys()); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	sc := reg.Scope("server")
	if v := sc.Counter("cache/evictions").Value(); v != 1 {
		t.Errorf("evictions = %d, want 1", v)
	}
	if v := sc.Gauge("cache/entries").Value(); v != 2 {
		t.Errorf("entries gauge = %d, want 2", v)
	}
	if h, m := sc.Counter("cache/hits").Value(), sc.Counter("cache/misses").Value(); h != 3 || m != 4 {
		t.Errorf("hits/misses = %d/%d, want 3/4", h, m)
	}
	// A hit serves the retained payload without computing.
	got, how, err := c.Do(context.Background(), "a", func() (*cachedResult, error) {
		return nil, errors.New("recomputed a retained key")
	})
	if err != nil || how != memo.Hit || string(got.body) != "a" {
		t.Errorf("retained a = %v, %v, %v", got, how, err)
	}
}

// cached reports whether key is retained in c; a miss runs a failing
// compute, so probing never retains anything.
func cached(c *memo.Group[string, *cachedResult], key string) bool {
	_, how, _ := c.Do(context.Background(), key, func() (*cachedResult, error) {
		return nil, errors.New("not cached")
	})
	return how == memo.Hit
}

func TestResultCacheDisabled(t *testing.T) {
	c, reg := newTestCache(-1)
	for i := 0; i < 2; i++ {
		if _, how, err := c.Do(context.Background(), "a", func() (*cachedResult, error) {
			return &cachedResult{body: []byte("a")}, nil
		}); err != nil || how != memo.Lead {
			t.Errorf("request %d: %v, %v; want a fresh computation", i, how, err)
		}
	}
	if n := len(c.Keys()); n != 0 {
		t.Errorf("disabled cache holds %d entries", n)
	}
	sc := reg.Scope("server")
	if v := sc.Counter("cache/misses").Value(); v != 2 {
		t.Errorf("misses = %d, want 2", v)
	}
	if v := sc.Gauge("cache/entries").Value(); v != 0 {
		t.Errorf("entries gauge = %d, want 0", v)
	}
}
