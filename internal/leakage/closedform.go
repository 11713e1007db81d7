package leakage

// The closed forms behind the aggregate fast path: every builtin policy
// declares its IntervalEnergy (and IntervalMisses) as a piecewise-affine
// Curve per flags value. The curves mirror the reference implementations
// in policy.go/extended.go/coloring.go/waymemo.go branch for branch —
// same threshold comparisons on float64(length), same flag dispatch —
// differing only by floating-point regrouping of each branch's affine
// arithmetic. TestClosedFormsMatchReference pins the agreement pointwise
// across every flags value, technology node, and threshold neighborhood;
// the aggregate property tests pin it distribution-wide.
//
// Custom registry schemes that do not implement ClosedForm (no declared
// threshold structure) simply bypass the fast path: EvaluateAggregate
// falls back to the reference walk over Aggregates.Source().

import (
	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// ClosedForm is implemented by policies whose IntervalEnergy is piecewise
// affine in the interval length for any fixed flags value. EnergyCurve
// returns the curve for one flags value; ok=false means the policy cannot
// express this flags class in closed form — or that its composition
// outgrew a Curve's capacity — and the caller must fall back to the
// bucket-walking reference path for the whole distribution.
type ClosedForm interface {
	EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool)
}

// MissClosedForm is the induced-miss counterpart of ClosedForm: the
// piecewise form of MissModel.IntervalMisses for one flags value.
type MissClosedForm interface {
	MissCurve(t power.Technology, flags interval.Flags) (Curve, bool)
}

// Shared building blocks, mirroring the helpers in policy.go. Each one
// builds into caller-owned storage (the receiver), and the combinators
// compose in place, so assembling a curve never copies one through a
// call: a Curve is a fixed-size value of maxPieces pieces.

// active makes c the always-active curve.
func (c *Curve) active(t power.Technology) { c.set(0, t.PActive) }

// drowsyFor mirrors drowsyEnergyFor: active for L <= DrowsyOverhead,
// DrowsyEnergy past it.
func (c *Curve) drowsyFor(t power.Technology) {
	oh := float64(t.Durations.DrowsyOverhead())
	drowsy := affine(oh*t.PActive-oh*t.PDrowsy, t.PDrowsy)
	c.active(t)
	c.switchAt(oh, &drowsy)
}

// leadingSleep mirrors leadingSleepEnergy: active when the wake cannot
// fit (L < S3+S4, i.e. the cut sits at wake-0.5 for the integer lengths
// distributions record), off-then-wake otherwise.
func (c *Curve) leadingSleep(t power.Technology) {
	wake := float64(t.Durations.S3 + t.Durations.S4)
	slept := affine(wake*t.PActive-wake*t.PSleep, t.PSleep)
	c.active(t)
	c.switchAt(wake-0.5, &slept)
}

// trailingSleep mirrors trailingSleepEnergy: active for L < S1.
func (c *Curve) trailingSleep(t power.Technology) {
	s1 := float64(t.Durations.S1)
	slept := affine(s1*t.PActive-s1*t.PSleep, t.PSleep)
	c.active(t)
	c.switchAt(s1-0.5, &slept)
}

// untouchedSleep makes c the asleep-throughout curve.
func (c *Curve) untouchedSleep(t power.Technology) { c.set(0, t.PSleep) }

// sleepFor mirrors sleepEnergyFor's flag dispatch, including the
// write-back charge riding on trailing and interior dirty intervals.
func (c *Curve) sleepFor(t power.Technology, flags interval.Flags) {
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(t)
	case flags&interval.Leading != 0:
		c.leadingSleep(t)
	case flags&interval.Trailing != 0:
		c.trailingSleep(t)
		c.plusConst(wb)
	default:
		ohS := float64(t.Durations.SleepOverhead())
		c.set(ohS*t.PActive-ohS*t.PSleep+t.CD+wb, t.PSleep)
	}
}

// gateAt makes c the curve that is c up to theta and the flags' sleep
// curve past it: the shape of every gating policy.
func (c *Curve) gateAt(theta float64, t power.Technology, flags interval.Flags) {
	var sleep Curve
	sleep.sleepFor(t, flags)
	c.switchAt(theta, &sleep)
}

// zeroCurve is the all-zero miss curve.
func zeroCurve() (c Curve) {
	c.set(0, 0)
	return c
}

// EnergyCurve implements ClosedForm.
func (AlwaysActive) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	c.active(t)
	return c, true
}

// MissCurve implements MissClosedForm.
func (AlwaysActive) MissCurve(power.Technology, interval.Flags) (Curve, bool) {
	return zeroCurve(), true
}

// EnergyCurve implements ClosedForm.
func (OPTDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	c.drowsyFor(t)
	return c, true
}

// MissCurve implements MissClosedForm.
func (OPTDrowsy) MissCurve(power.Technology, interval.Flags) (Curve, bool) {
	return zeroCurve(), true
}

// optSleepTheta applies the reference's clamp: theta never drops below
// the sleep overhead.
func (p OPTSleep) theta(t power.Technology) float64 {
	theta := float64(p.Theta)
	if m := float64(t.Durations.SleepOverhead()); theta < m {
		theta = m
	}
	return theta
}

// EnergyCurve implements ClosedForm.
func (p OPTSleep) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	c.active(t)
	c.gateAt(p.theta(t), t, flags)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (p OPTSleep) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() {
		return zeroCurve(), true
	}
	c.step(p.theta(t), 1)
	return c, c.valid()
}

// EnergyCurve implements ClosedForm.
func (p SleepDecay) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	d := t.Durations
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(t)
	case flags&interval.Leading != 0:
		c.leadingSleep(t)
	default:
		theta := float64(p.Theta)
		need := theta + float64(d.S1)
		if flags&interval.Trailing == 0 {
			need += float64(d.S3 + d.S4)
		}
		var wb float64
		if flags&interval.Dirty != 0 {
			wb = t.WBEnergy
		}
		var gated Curve
		if flags&interval.Trailing != 0 {
			gated.set(theta*t.PActive+float64(d.S1)*t.PActive-(theta+float64(d.S1))*t.PSleep+wb, t.PSleep)
		} else {
			wake := float64(d.S3+d.S4) * t.PActive
			gated.set(theta*t.PActive+float64(d.S1)*t.PActive+wake+t.CD+wb-need*t.PSleep, t.PSleep)
		}
		c.active(t)
		c.switchAt(need, &gated)
	}
	c.plusSlope(t.CounterLeak)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (p SleepDecay) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() {
		return zeroCurve(), true
	}
	d := t.Durations
	c.step(float64(p.Theta)+float64(d.S1)+float64(d.S3+d.S4), 1)
	return c, c.valid()
}

// hybridTheta is OPT-Hybrid's drowsy-to-sleep switch point: the
// inflection point b unless overridden; ok=false when the technology has
// no inflection points.
func (p OPTHybrid) hybridTheta(t power.Technology) (float64, bool) {
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0, false
	}
	if p.SleepTheta > 0 {
		return float64(p.SleepTheta), true
	}
	return b, true
}

// EnergyCurve implements ClosedForm.
func (p OPTHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	theta, ok := p.hybridTheta(t)
	if !ok {
		c.active(t)
		return c, true
	}
	c.drowsyFor(t)
	c.gateAt(theta, t, flags)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (p OPTHybrid) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() {
		return zeroCurve(), true
	}
	theta, ok := p.hybridTheta(t)
	if !ok {
		return zeroCurve(), true
	}
	c.step(theta, 1)
	return c, c.valid()
}

// EnergyCurve implements ClosedForm.
func (p PeriodicDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	c.active(t)
	w := float64(p.Window)
	if w <= 0 {
		return c, true
	}
	wait := w / 2
	var idle Curve
	if flags&interval.Leading != 0 || flags&interval.Trailing != 0 {
		idle.set(wait*t.PActive-wait*t.PDrowsy+float64(t.Durations.D1)*t.PActive, t.PDrowsy)
	} else {
		oh := float64(t.Durations.DrowsyOverhead())
		idle.set(wait*t.PActive+oh*t.PActive-(wait+oh)*t.PDrowsy, t.PDrowsy)
		wait += oh
	}
	c.switchAt(wait, &idle)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (PeriodicDrowsy) MissCurve(power.Technology, interval.Flags) (Curve, bool) {
	return zeroCurve(), true
}

// EnergyCurve implements ClosedForm.
func (p PrefetchGuided) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(t)
		return c, true
	case flags&interval.Leading != 0:
		c.leadingSleep(t)
		return c, true
	}
	_, b, err := t.InflectionPoints()
	switch {
	case err != nil:
		c.active(t)
	case flags.Prefetchable():
		c.drowsyFor(t)
		c.gateAt(b, t, flags)
		return c, c.valid()
	case p.PowerBiased:
		c.drowsyFor(t)
	default:
		c.active(t)
	}
	return c, true
}

// MissCurve implements MissClosedForm.
func (p PrefetchGuided) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() || !flags.Prefetchable() {
		return zeroCurve(), true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return zeroCurve(), true
	}
	c.step(b, 1)
	return c, c.valid()
}

// EnergyCurve implements ClosedForm: the decay base curve with the tag
// array's share of any sleep savings given back.
func (p AMCSleep) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if c, ok = (SleepDecay{Theta: p.Theta}).EnergyCurve(t, flags); !ok {
		return c, false
	}
	c.tagTransform(p.TagFraction, t.PActive)
	return c, c.valid()
}

// MissCurve implements MissClosedForm: same decisions as the decay core.
func (p AMCSleep) MissCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	return SleepDecay{Theta: p.Theta}.MissCurve(t, flags)
}

// dirtyTheta mirrors DirtyAwareHybrid's per-flag crossover.
func dirtyTheta(t power.Technology, b float64, flags interval.Flags) float64 {
	if flags&interval.Dirty != 0 {
		return b + t.WBEnergy/(t.PDrowsy-t.PSleep)
	}
	return b
}

// EnergyCurve implements ClosedForm.
func (DirtyAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	_, b, err := t.InflectionPoints()
	if err != nil {
		c.active(t)
		return c, true
	}
	c.drowsyFor(t)
	c.gateAt(dirtyTheta(t, b, flags), t, flags)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (DirtyAwareHybrid) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() {
		return zeroCurve(), true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return zeroCurve(), true
	}
	c.step(dirtyTheta(t, b, flags), 1)
	return c, c.valid()
}

// EnergyCurve implements ClosedForm: the dead-interior branch gates
// wherever CD-free sleep beats the drowsy schedule (for L >= the sleep
// overhead), everything else follows OPT-Hybrid.
func (DeadAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if flags&interval.DeadEnd == 0 || !flags.Interior() {
		return OPTHybrid{}.EnergyCurve(t, flags)
	}
	if _, _, err := t.InflectionPoints(); err != nil {
		c.active(t)
		return c, true
	}
	ohS := float64(t.Durations.SleepOverhead())
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	sleepNR := affine(ohS*t.PActive-ohS*t.PSleep+wb, t.PSleep)
	c.drowsyFor(t)
	gated := c
	gated.pickBelow(&sleepNR)
	c.switchAt(ohS-0.5, &gated)
	return c, c.valid()
}

// MissCurve implements MissClosedForm: gated dead intervals never
// re-fetch.
func (DeadAwareHybrid) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if flags&interval.DeadEnd != 0 && flags.Interior() {
		return zeroCurve(), true
	}
	return OPTHybrid{}.MissCurve(t, flags)
}

// EnergyCurve implements ClosedForm.
func (p Coloring) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(t)
		return c, true
	case flags&interval.Leading != 0:
		c.leadingSleep(t)
		return c, true
	}
	c.active(t)
	c.gateAt(p.regionTheta(t), t, flags)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (p Coloring) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() {
		return zeroCurve(), true
	}
	c.step(p.regionTheta(t), 1)
	return c, c.valid()
}

// EnergyCurve implements ClosedForm.
func (p WayMemo) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(t)
		return c, true
	case flags&interval.Leading != 0:
		c.leadingSleep(t)
		return c, true
	}
	if !flags.Prefetchable() {
		c.active(t)
		return c, true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		c.active(t)
		return c, true
	}
	var slept Curve
	slept.sleepFor(t, flags)
	if flags.Interior() {
		slept.plusConst((1 - p.Accuracy) * t.CD)
	}
	c.drowsyFor(t)
	c.switchAt(b, &slept)
	return c, c.valid()
}

// MissCurve implements MissClosedForm.
func (p WayMemo) MissCurve(t power.Technology, flags interval.Flags) (c Curve, ok bool) {
	if !flags.Interior() || !flags.Prefetchable() {
		return zeroCurve(), true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return zeroCurve(), true
	}
	c.step(b, 1+(1-p.Accuracy))
	return c, c.valid()
}
