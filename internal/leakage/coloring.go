package leakage

// Cache-coloring leakage management (Mittal's survey family,
// arXiv:1309.5647): the frame array is partitioned into Colors equal
// regions ("colors"), and the controller gates cold colors wholesale
// instead of individual frames. Coarse granularity is cheap in control
// logic but can only harvest an idle period when an entire region is
// idle, so the per-frame threshold scales with the region size: a region
// of g = Frames/Colors frames is modelled as gated only during intervals
// of at least g times the drowsy-sleep inflection point b (the expected
// wait for g frames to be simultaneously idle grows linearly in g).
// With Colors == Frames the model collapses to per-frame OPT-Sleep(b);
// with Colors == 1 the whole cache must be idle, the conservative
// extreme. Untouched frames and leading gaps are gated as usual — invalid
// lines start powered off regardless of the gating granularity.

import (
	"math"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// DefaultColoringFrames is the study's L1 frame count (64KB / 64B lines),
// the default region base for the coloring model.
const DefaultColoringFrames = 1024

// Coloring is the cache-coloring policy: Colors regions over Frames
// frames, cold regions gated wholesale.
type Coloring struct {
	// Colors is the number of color regions (>= 1).
	Colors uint64
	// Frames is the number of cache frames partitioned (>= Colors);
	// DefaultColoringFrames matches the study's L1 caches.
	Frames uint64
}

// Name implements Policy.
func (p Coloring) Name() string { return uintName("Coloring", p.Colors) }

// regionTheta is the minimum interval length the region-gating model can
// harvest: the inflection point b scaled by the region size.
func (p Coloring) regionTheta(t power.Technology) float64 {
	_, b, err := t.InflectionPoints()
	if err != nil || p.Colors == 0 || p.Frames < p.Colors {
		return math.Inf(1) // degenerate: never gate
	}
	return b * (float64(p.Frames) / float64(p.Colors))
}

// IntervalEnergy implements Policy.
func (p Coloring) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepEnergy(t, L)
	case flags&interval.Leading != 0:
		return leadingSleepEnergy(t, L)
	}
	if L > p.regionTheta(t) {
		return sleepEnergyFor(t, L, flags)
	}
	return t.ActiveEnergy(L)
}
