package leakage

// Way-memoization-style leakage management (Ishihara & Fallah,
// arXiv:0710.4703): the cache memoizes where the next access will land,
// and uses that prediction to pre-wake the predicted frame so a gated
// line is powered up before the access arrives. leakbound reuses the
// prefetch engine's published predictions as the memo — an interval whose
// closing access the next-line or stride predictor covered is exactly an
// interval the memo could have pre-woken — and parameterizes the memo's
// Accuracy: a correct prediction hides the wakeup like Prefetch-A, a
// mispredict stalls the access and is charged one extra induced-miss
// re-fetch energy (the mispredicted pre-wake fetched the wrong frame).
// Non-predicted intervals stay active (the memo has nothing to act on),
// so Accuracy = 1 makes WayMemo identical to Prefetch-A.

import (
	"strconv"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// DefaultWayMemoAccuracy is the default memo hit rate; the suite's stride
// engines measure 0.9+ on the SPEC-like workloads, and the families table
// substitutes each benchmark's measured accuracy.
const DefaultWayMemoAccuracy = 0.9

// WayMemo is the way-memoization policy with a given memo accuracy in
// [0, 1].
type WayMemo struct {
	// Accuracy is the fraction of predicted accesses whose pre-wake hit
	// the right frame.
	Accuracy float64
}

// Name implements Policy.
func (p WayMemo) Name() string {
	var buf [48]byte
	b := strconv.AppendFloat(append(buf[:0], "WayMemo("...), p.Accuracy, 'f', 2, 64)
	return string(append(b, ')'))
}

// IntervalEnergy implements Policy.
func (p WayMemo) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepEnergy(t, L)
	case flags&interval.Leading != 0:
		return leadingSleepEnergy(t, L)
	}
	if !flags.Prefetchable() {
		return t.ActiveEnergy(L)
	}
	a, b, err := t.InflectionPoints()
	if err != nil {
		return t.ActiveEnergy(L)
	}
	switch {
	case L > b:
		e := sleepEnergyFor(t, L, flags)
		if flags.Interior() {
			// A mispredicted pre-wake woke the wrong frame: the access
			// stalls for a full re-fetch, charged as induced-miss energy.
			e += (1 - p.Accuracy) * t.CD
		}
		return e
	case L > a:
		return drowsyEnergyFor(t, L)
	default:
		return t.ActiveEnergy(L)
	}
}
