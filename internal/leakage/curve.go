package leakage

// Piecewise-affine energy curves: the closed-form backbone of the
// aggregate fast path. Every builtin policy's IntervalEnergy, for a fixed
// flags value, is piecewise affine in the interval length with at most a
// handful of pieces (a threshold theta, a drowse window, an accuracy
// cutoff), so a policy evaluation over a whole distribution collapses to,
// per piece, const*count + slope*mass of the lengths falling in the
// piece — two prefix-sum lookups (interval.FlagsClass.Prefix) instead of
// a walk over every bucket.
//
// Representation: a Curve is a fixed-capacity value — its pieces live in
// an inline array with a piece count — so building one never touches the
// heap (TestClosedFormsZeroAlloc). The combinators compose in place on a
// caller-owned receiver, so the fixed-size value is not copied through
// every call. The capacity is the largest piece count the builtin
// compositions can reach (see maxPieces); a composition that would
// outgrow it marks the curve overflowed, EnergyCurve/MissCurve then
// answer ok=false, and EvaluateAggregate takes the reference walk for
// that evaluation. A curve is never truncated.
//
// Branch-boundary discipline: the reference implementations all branch on
// strict "float64(length) > threshold" comparisons (or their negations),
// and Prefix answers "float64(length) <= cut", so a Curve cut placed at
// the threshold reproduces the reference's branch decisions exactly.
// Conditions of the form "length >= k" with integer k are encoded as a
// cut at k - 0.5 (interval lengths are integers, so no length falls
// between). The only inexactness the fast path admits is floating-point
// reassociation: a piece's const+slope*L regroups the reference's
// arithmetic, and prefix sums reorder the additions — both bounded by
// ulp-scale relative error, pinned by TestClosedFormsMatchReference.

import "math"

// maxPieces is a Curve's capacity, derived from the combinator bounds:
//
//   - affine leaves (set, affine) have 1 piece; plusConst and plusSlope
//     keep the count;
//   - switchAt yields at most low+high pieces;
//   - pickBelow yields at most two pieces per merged segment, and two
//     curves of m and n pieces merge into at most m+n-1 segments;
//   - tagTransform yields at most two pieces per base piece.
//
// So the drowsy, leading-, trailing- and interior-sleep building blocks
// (a switchAt of two leaves) have at most 2 pieces; every threshold
// policy is a switchAt of two such blocks (≤ 4), AMC is tagTransform of
// a 2-piece decay curve (≤ 4), every miss curve a switchAt of two leaves
// (≤ 2); the largest is DeadAwareHybrid's switchAt of the 2-piece drowsy
// block over pickBelow(drowsy, leaf) — 2 + 2·(2+1-1) = 6. The builtins
// reach 4 in practice (TestCurveCapacity pins both numbers).
const maxPieces = 6

// overflowed is the piece count of a composition that needed more than
// maxPieces pieces.
const overflowed = -1

// piece is one affine segment of a Curve: value cnst + slope*L for L in
// (previous piece's end, end]. The last piece's end is +Inf.
type piece struct {
	end, cnst, slope float64
}

// Curve is a piecewise-affine function of interval length L > 0: n
// pieces with ascending ends, the last one unbounded. The zero Curve and
// an overflowed composition hold no pieces and are not valid.
type Curve struct {
	p [maxPieces]piece
	n int
}

// valid reports whether c holds a usable curve: at least one piece and no
// overflow.
func (c *Curve) valid() bool { return c.n > 0 }

// push appends a piece; past the capacity it marks c overflowed, and an
// overflowed curve takes no further pieces.
func (c *Curve) push(end, cnst, slope float64) {
	switch {
	case c.n < 0:
	case c.n == maxPieces:
		c.n = overflowed
	default:
		c.p[c.n] = piece{end, cnst, slope}
		c.n++
	}
}

// segIndex returns the index of the piece whose range contains lengths
// just below end (i.e. the piece covering (prevEnd, end]).
func (c *Curve) segIndex(end float64) int {
	i := 0
	for i < c.n-1 && !(end <= c.p[i].end) {
		i++
	}
	return i
}

// Eval returns the curve's value at length L.
func (c Curve) Eval(L float64) float64 {
	pc := c.p[c.segIndex(L)]
	return pc.cnst + pc.slope*L
}

// set makes c the single-piece curve cnst + slope*L.
func (c *Curve) set(cnst, slope float64) {
	c.p[0] = piece{math.Inf(1), cnst, slope}
	c.n = 1
}

// affine returns the single-piece curve cnst + slope*L.
func affine(cnst, slope float64) (c Curve) {
	c.set(cnst, slope)
	return c
}

// plusConst shifts every piece up by k.
func (c *Curve) plusConst(k float64) {
	if k == 0 {
		return
	}
	for i := 0; i < c.n; i++ {
		c.p[i].cnst += k
	}
}

// plusSlope adds k to every piece's slope (e.g. an always-leaking decay
// counter).
func (c *Curve) plusSlope(k float64) {
	if k == 0 {
		return
	}
	for i := 0; i < c.n; i++ {
		c.p[i].slope += k
	}
}

// switchAt makes c the curve that equals c for L <= cut and high for
// L > cut — the shape of every "length > theta" policy branch. A cut <= 0
// (or NaN) selects high everywhere; +inf selects c everywhere. Composing
// in place, with high by reference (it must not be c), keeps the
// fixed-size curves from being copied through every combinator.
func (c *Curve) switchAt(cut float64, high *Curve) {
	switch {
	case !(cut > 0):
		*c = *high
		return
	case math.IsInf(cut, 1):
		return
	case !c.valid() || !high.valid():
		c.n = overflowed
		return
	}
	// Keep c's pieces up to the one containing cut, ending it at cut.
	i := 0
	for i < c.n-1 && c.p[i].end < cut {
		i++
	}
	c.p[i].end = cut
	c.n = i + 1
	for j := 0; j < high.n; j++ {
		if pc := high.p[j]; pc.end > cut { // skip pieces entirely below the switch point
			c.push(pc.end, pc.cnst, pc.slope)
		}
	}
}

// step makes c the curve that is 0 for L <= cut and v past it: the
// induced-miss shape of every gating decision.
func (c *Curve) step(cut, v float64) {
	high := affine(v, 0)
	c.set(0, 0)
	c.switchAt(cut, &high)
}

// pickBelow makes c the curve that equals alt wherever alt(L) is
// strictly below c(L), and c elsewhere — the dead-oracle's "gate
// whenever CD-free sleep beats the drowsy schedule" selection. Affine
// pieces cross at most once, so each elementary segment of the merged cut
// set splits at most once at the analytic crossover; both sides agree at
// the crossover itself, so any ulp-level disagreement with the
// reference's per-bucket comparison moves only values equal to within
// ulps.
func (c *Curve) pickBelow(alt *Curve) {
	base := c
	var out Curve
	if !base.valid() || !alt.valid() {
		c.n = overflowed
		return
	}
	// Merge the two ascending cut lists (every piece end but the +Inf
	// last) into one ascending scratch list on the stack.
	var cuts [2 * (maxPieces - 1)]float64
	nc := 0
	for bi, ai := 0, 0; bi < base.n-1 || ai < alt.n-1; nc++ {
		if ai == alt.n-1 || (bi < base.n-1 && base.p[bi].end <= alt.p[ai].end) {
			cuts[nc] = base.p[bi].end
			bi++
		} else {
			cuts[nc] = alt.p[ai].end
			ai++
		}
	}
	lo := 0.0
	for k := 0; k <= nc; k++ {
		hi := math.Inf(1)
		if k < nc {
			hi = cuts[k]
		}
		if hi <= lo {
			continue // duplicate boundary
		}
		b := base.p[base.segIndex(hi)]
		a := alt.p[alt.segIndex(hi)]
		// Crossover of the two affine pieces inside (lo, hi), if any.
		ends, ne := [2]float64{hi}, 1
		if b.slope != a.slope {
			if x := (a.cnst - b.cnst) / (b.slope - a.slope); x > lo && x < hi {
				ends, ne = [2]float64{x, hi}, 2
			}
		}
		for _, end := range ends[:ne] {
			probe := (lo + end) / 2
			if math.IsInf(end, 1) {
				probe = lo + 1
			}
			if a.cnst+a.slope*probe < b.cnst+b.slope*probe {
				out.push(end, a.cnst, a.slope)
			} else {
				out.push(end, b.cnst, b.slope)
			}
			lo = end
		}
	}
	*c = out
}

// tagTransform applies the AMC tag-array correction to c, a decay base
// curve: wherever the base gated anything (slept(L) = PActive*L - base(L)
// > 0) the tag's share tf of the savings is given back, i.e. the value
// becomes (1-tf)*base(L) + tf*PActive*L. Per base piece slept is affine,
// so the sign changes at most once per piece.
func (c *Curve) tagTransform(tf, pActive float64) {
	var out Curve
	if !c.valid() {
		c.n = overflowed
		return
	}
	lo := 0.0
	for i := 0; i < c.n; i++ {
		hi, cnst, slope := c.p[i].end, c.p[i].cnst, c.p[i].slope
		if hi <= lo {
			continue
		}
		// slept(L) = (pActive-slope)*L - cnst; transformed piece value:
		tc, ts := (1-tf)*cnst, slope+tf*(pActive-slope)
		ends, ne := [2]float64{hi}, 1
		if d := pActive - slope; d != 0 {
			if x := cnst / d; x > lo && x < hi {
				ends, ne = [2]float64{x, hi}, 2
			}
		}
		for _, end := range ends[:ne] {
			probe := (lo + end) / 2
			if math.IsInf(end, 1) {
				probe = lo + 1
			}
			if pActive*probe-(cnst+slope*probe) > 0 {
				out.push(end, tc, ts)
			} else {
				out.push(end, cnst, slope)
			}
			lo = end
		}
	}
	*c = out
}
