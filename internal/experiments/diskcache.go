package experiments

// Optional on-disk caching of per-benchmark simulation products. The
// simulations are deterministic, so a (benchmark, scale, format-version)
// key fully identifies the result; repeated experiment runs — and
// cross-session parameter sweeps — then skip straight to policy
// evaluation.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"leakbound/internal/interval"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cpu"
)

// cacheVersion invalidates old cache entries whenever the simulator,
// workloads, or the distribution format change behaviourally.
const cacheVersion = 3

// cacheMeta is the JSON sidecar holding everything but the distributions.
type cacheMeta struct {
	Version int
	Name    string
	Scale   float64
	Result  cpu.Result
	IEngine prefetch.EngineStats
	DEngine prefetch.EngineStats
}

func (s *Suite) cacheKey(name string) string {
	return fmt.Sprintf("%s_%g_v%d", name, s.scale, cacheVersion)
}

// scenarioCacheKey keys a scenario entry by name plus a spec-digest
// prefix, so editing a spec (same name, new digest) never serves a stale
// simulation.
func (s *Suite) scenarioCacheKey(name, digest string) string {
	if len(digest) > 16 {
		digest = digest[:16]
	}
	return fmt.Sprintf("%s_%s_%g_v%d", name, digest, s.scale, cacheVersion)
}

// loadCached returns the cached benchmark data under key, or nil if
// absent/invalid. Every lookup lands in the "diskcache" hit/miss
// counters — a miss means a fresh simulation follows, whether the cache
// is disabled, cold, or stale.
func (s *Suite) loadCached(key, name string) (d *BenchmarkData) {
	// Touching both counters up front keeps them visible (at zero) in every
	// snapshot, even before the first hit or miss of the other kind.
	dc := s.metrics.Scope("diskcache")
	hits, misses := dc.Counter("hits"), dc.Counter("misses")
	defer func() {
		if d != nil {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
	}()
	if s.cacheDir == "" {
		return nil
	}
	base := filepath.Join(s.cacheDir, key)
	metaRaw, err := os.ReadFile(base + ".json")
	if err != nil {
		return nil
	}
	var meta cacheMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil
	}
	if meta.Version != cacheVersion || meta.Name != name || meta.Scale != s.scale {
		return nil
	}
	load := func(suffix string) *interval.Distribution {
		f, err := os.Open(base + suffix)
		if err != nil {
			return nil
		}
		defer f.Close()
		d, err := interval.ReadDistribution(f)
		if err != nil {
			return nil
		}
		return d
	}
	iDist := load(".icache")
	dDist := load(".dcache")
	l2Dist := load(".l2")
	if iDist == nil || dDist == nil || l2Dist == nil {
		return nil
	}
	// Sanity: every distribution must span the run's cycles and conserve
	// mass (each frame's intervals tile the run exactly).
	for _, dist := range []*interval.Distribution{iDist, dDist, l2Dist} {
		if dist.TotalCycles != meta.Result.Cycles || dist.Mass() != uint64(dist.NumFrames)*dist.TotalCycles {
			return nil
		}
	}
	return &BenchmarkData{
		Name: name, Result: meta.Result,
		ICache: iDist, DCache: dDist, L2Cache: l2Dist,
		IEngine: meta.IEngine, DEngine: meta.DEngine,
	}
}

// storeCached best-effort persists the benchmark data; failures are
// silently ignored (the cache is an optimization, not a dependency).
func (s *Suite) storeCached(key string, d *BenchmarkData) {
	if s.cacheDir == "" {
		return
	}
	if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
		return
	}
	base := filepath.Join(s.cacheDir, key)
	meta := cacheMeta{
		Version: cacheVersion, Name: d.Name, Scale: s.scale,
		Result: d.Result, IEngine: d.IEngine, DEngine: d.DEngine,
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return
	}
	// Each file goes to a unique temporary name and is renamed into place,
	// so suites sharing the directory never write into each other's file.
	place := func(suffix string, write func(io.Writer) error) bool {
		f, err := os.CreateTemp(s.cacheDir, key+suffix+".*.tmp")
		if err != nil {
			return false
		}
		if err = f.Chmod(0o644); err == nil {
			err = write(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), base+suffix)
		}
		if err != nil {
			os.Remove(f.Name())
		}
		return err == nil
	}
	dist := func(d *interval.Distribution) func(io.Writer) error {
		return func(w io.Writer) error { return interval.WriteDistribution(w, d) }
	}
	if !place(".icache", dist(d.ICache)) || !place(".dcache", dist(d.DCache)) || !place(".l2", dist(d.L2Cache)) {
		return
	}
	// The JSON sidecar goes last: its presence marks the entry complete.
	if place(".json", func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}) {
		s.metrics.Scope("diskcache").Counter("stores").Add(1)
	}
}

// osWriteFileHelper is a test seam for corrupting cache entries.
func osWriteFileHelper(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
