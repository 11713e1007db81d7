package server

// The result cache: every servable result is a deterministic function of
// its canonicalized request parameters (the suite is fixed at startup and
// simulation is bit-reproducible), so responses are cached whole — body,
// content type, and ETag — in a memo.Group that also coalesces concurrent
// identical requests. There is no TTL: entries are only ever displaced by
// the LRU bound.

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"sort"
	"strings"

	"leakbound/internal/memo"
	"leakbound/internal/telemetry"
)

// cachedResult is one materialized response.
type cachedResult struct {
	body        []byte
	contentType string
	etag        string
}

// etagFor derives a strong validator from the response bytes.
func etagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch implements If-None-Match against a strong ETag: a "*" or any
// listed value (weak prefixes tolerated) matches.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// canonicalKey reduces a request to its cache identity: the path plus the
// query parameters re-encoded with sorted keys and sorted values, so
// ?a=1&b=2 and ?b=2&a=1 coalesce and share one cache entry.
func canonicalKey(path string, query url.Values) string {
	if len(query) == 0 {
		return path
	}
	keys := make([]string, 0, len(query))
	for k := range query {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(path)
	b.WriteByte('?')
	first := true
	for _, k := range keys {
		vals := append([]string(nil), query[k]...)
		sort.Strings(vals)
		for _, v := range vals {
			if !first {
				b.WriteByte('&')
			}
			first = false
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String()
}

// newResults builds the server's memo: a keyed singleflight over
// canonical keys in front of an LRU of at most max responses (max <= 0
// keeps none; coalescing and admission still apply). Its events land in
// the cache/* and coalesce/* telemetry.
func newResults(max int, sc *telemetry.Scope) *memo.Group[string, *cachedResult] {
	hits, misses := sc.Counter("cache/hits"), sc.Counter("cache/misses")
	evictions, entries := sc.Counter("cache/evictions"), sc.Gauge("cache/entries")
	leaders, waits := sc.Counter("coalesce/leader_runs"), sc.Counter("coalesce/coalesced_waits")
	return memo.New[string, *cachedResult](max, func(e memo.Event) {
		switch e {
		case memo.Hit:
			hits.Add(1)
		case memo.Miss:
			misses.Add(1)
		case memo.Lead:
			leaders.Add(1)
		case memo.Wait:
			waits.Add(1)
		case memo.Store:
			entries.Add(1)
		case memo.Evict:
			evictions.Add(1)
			entries.Add(-1)
		}
	})
}
