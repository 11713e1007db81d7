package experiments

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/telemetry"
)

// TestDiskCacheRejectsInconsistentEntries: a well-formed entry whose L2
// distribution spans the wrong cycle count, or whose I distribution does
// not conserve mass, is a miss, and the suite simulates the same data
// afresh.
func TestDiskCacheRejectsInconsistentEntries(t *testing.T) {
	const scale = 0.03
	want, err := MustNew(WithScale(scale), WithMetrics(telemetry.NewRegistry())).Data("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cycles := want.Result.Cycles
	// Conserving, but over one cycle more than the run.
	longL2 := interval.NewDistribution(want.L2Cache.NumFrames, cycles+1)
	longL2.Add(cycles+1, 0, uint64(want.L2Cache.NumFrames))
	// Spanning the run, but holding a single one-cycle interval.
	thinI := interval.NewDistribution(want.ICache.NumFrames, cycles)
	thinI.Add(1, 0, 1)

	for _, c := range []struct {
		name, suffix string
		dist         *interval.Distribution
	}{
		{"mismatched-l2", ".l2", longL2},
		{"non-conserving-i", ".icache", thinI},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := MustNew(WithScale(scale), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry())).Data("gzip"); err != nil {
				t.Fatal(err)
			}
			s := MustNew(WithScale(scale), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
			var buf bytes.Buffer
			if err := interval.WriteDistribution(&buf, c.dist); err != nil {
				t.Fatal(err)
			}
			if err := osWriteFileHelper(filepath.Join(dir, s.cacheKey("gzip")+c.suffix), buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			if s.loadCached(s.cacheKey("gzip"), "gzip") != nil {
				t.Fatal("inconsistent cache entry accepted")
			}
			reg := telemetry.NewRegistry()
			got, err := MustNew(WithScale(scale), WithCacheDir(dir), WithMetrics(reg)).Data("gzip")
			if err != nil {
				t.Fatal(err)
			}
			if sims := reg.Scope("suite").Counter("fresh_sims").Value(); sims != 1 {
				t.Errorf("fresh_sims = %d, want 1 (fallback to simulation)", sims)
			}
			if got.Result != want.Result || !got.ICache.Equal(want.ICache) ||
				!got.DCache.Equal(want.DCache) || !got.L2Cache.Equal(want.L2Cache) {
				t.Error("simulated fallback differs from the original data")
			}
		})
	}
}

// TestDiskCacheConcurrentStore: suites sharing a cache directory store
// the same key at once; a fresh suite then loads a valid entry and no
// temporary file is left behind.
func TestDiskCacheConcurrentStore(t *testing.T) {
	const scale = 0.03
	d, err := MustNew(WithScale(scale), WithMetrics(telemetry.NewRegistry())).Data("gzip")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := MustNew(WithScale(scale), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
			for j := 0; j < 3; j++ {
				s.storeCached(s.cacheKey("gzip"), d)
			}
		}()
	}
	wg.Wait()
	s := MustNew(WithScale(scale), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
	got := s.loadCached(s.cacheKey("gzip"), "gzip")
	if got == nil {
		t.Fatal("no valid entry after concurrent stores")
	}
	if got.Result != d.Result || !got.ICache.Equal(d.ICache) ||
		!got.DCache.Equal(d.DCache) || !got.L2Cache.Equal(d.L2Cache) {
		t.Error("loaded entry differs from the stored data")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}
