package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"

	"leakbound/internal/experiments"
	"leakbound/internal/interval"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/workload/spec"
)

// splitmix64 derives independent sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed returns the seed for input number i of stream s.
func subSeed(seed uint64, s, i int) uint64 {
	return splitmix64(splitmix64(seed^uint64(s)<<32) + uint64(i))
}

const (
	streamSpecs = iota + 1
	streamLadder
	streamCheck
	streamSchedule
)

// exampleSpecs parses every examples/specs/*.json under root, in file
// name order.
func exampleSpecs(root string) ([]*spec.Spec, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "specs", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no specs under %s", filepath.Join(root, "examples", "specs"))
	}
	sort.Strings(paths)
	out := make([]*spec.Spec, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sp, err := spec.Parse(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

// scenarioSet is what the batch workloads register with a Suite: the
// example specs with seeds derived from the workload seed, plus one of
// them recorded and read back as an instruction replay.
type scenarioSet struct {
	specs  []*spec.Spec
	replay *spec.Replay
}

func (s *scenarioSet) scenarios() []experiments.Scenario {
	out := make([]experiments.Scenario, 0, len(s.specs)+1)
	for _, sp := range s.specs {
		out = append(out, sp)
	}
	return append(out, s.replay)
}

// buildScenarios prepares the scenario set at scale. The replay is the
// first example spec under a seed of its own, so every workload seed
// records the same amount of work; the recording stays in memory.
func buildScenarios(root string, seed uint64, scale float64) (*scenarioSet, error) {
	specs, err := exampleSpecs(root)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		sp.Seed = subSeed(seed, streamSpecs, i)
	}
	src := *specs[0]
	src.Seed = subSeed(seed, streamSpecs, len(specs))
	w, err := src.Compile(scale)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := spec.Record(&buf, w); err != nil {
		return nil, fmt.Errorf("recording %s: %w", src.Name, err)
	}
	rp, err := spec.ReadReplay(&buf, src.Name+"-replay")
	if err != nil {
		return nil, err
	}
	return &scenarioSet{specs: specs, replay: rp}, nil
}

// digestData hashes one benchmark's simulated statistics: the CPU result,
// both prefetch engines and the three interval distributions in their
// on-disk encoding.
func digestData(h hash.Hash, name string, res cpu.Result, iEng, dEng prefetch.EngineStats, dists ...*interval.Distribution) error {
	fmt.Fprintf(h, "%s|%+v|%+v|%+v|", name, res, iEng, dEng)
	for _, d := range dists {
		if err := interval.WriteDistribution(h, d); err != nil {
			return err
		}
	}
	return nil
}

// builtinDigest hashes the built-in benchmarks' statistics in
// presentation order; scenario entries are skipped, so the digest does not
// depend on the workload seed.
func builtinDigest(all []*experiments.BenchmarkData, builtins []string) (string, error) {
	byName := make(map[string]*experiments.BenchmarkData, len(all))
	for _, d := range all {
		byName[d.Name] = d
	}
	h := sha256.New()
	for _, name := range builtins {
		d, ok := byName[name]
		if !ok {
			return "", fmt.Errorf("benchmark %s missing", name)
		}
		if err := digestData(h, d.Name, d.Result, d.IEngine, d.DEngine, d.ICache, d.DCache, d.L2Cache); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dataDigest hashes a single benchmark.
func dataDigest(d *experiments.BenchmarkData) (string, error) {
	h := sha256.New()
	if err := digestData(h, d.Name, d.Result, d.IEngine, d.DEngine, d.ICache, d.DCache, d.L2Cache); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// conserved checks Mass == NumFrames × TotalCycles on every distribution
// of d, read through its aggregates: every frame is in exactly one
// interval at every cycle of the run.
func conserved(d *experiments.BenchmarkData) error {
	for _, a := range []struct {
		side string
		agg  *interval.Aggregates
	}{{"i", d.IAgg}, {"d", d.DAgg}, {"l2", d.L2Agg}} {
		if a.agg == nil {
			return fmt.Errorf("%s/%s: no aggregates", d.Name, a.side)
		}
		want := uint64(a.agg.NumFrames()) * a.agg.TotalCycles()
		if a.agg.Mass() != want {
			return fmt.Errorf("%s/%s: mass %d != frames %d x cycles %d",
				d.Name, a.side, a.agg.Mass(), a.agg.NumFrames(), a.agg.TotalCycles())
		}
	}
	return nil
}
