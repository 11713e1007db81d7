package leakage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// builtinMaxPieces is the largest piece count any builtin energy or miss
// curve reaches — below maxPieces, which is the combinator bound.
const builtinMaxPieces = 4

// TestClosedFormsZeroAlloc is the runtime side of the kernel's hot-path
// contract: hotalloc stops at the EnergyCurve/MissCurve interface
// dispatch, so this test is what checks the callees. Building any
// builtin curve and folding it over a class allocates nothing; a whole
// EvaluateAggregate allocates only the Policy name stamp of a
// parameterized (formatted) name.
func TestClosedFormsZeroAlloc(t *testing.T) {
	agg := interval.NewAggregates(randomDistribution(rand.New(rand.NewSource(5))))
	classes := agg.Classes()
	if len(classes) == 0 {
		t.Fatal("random distribution has no flags classes")
	}
	for _, tech := range power.Technologies() {
		for _, pol := range testPolicies(tech) {
			cf, mc := pol.(ClosedForm), pol.(MissClosedForm)
			for f := 0; f < 64; f++ {
				flags := interval.Flags(f)
				if n := testing.AllocsPerRun(5, func() { cf.EnergyCurve(tech, flags) }); n != 0 {
					t.Fatalf("%s @%s flags %v: EnergyCurve made %v allocs, want 0", pol.Name(), tech.Name, flags, n)
				}
				if n := testing.AllocsPerRun(5, func() { mc.MissCurve(tech, flags) }); n != 0 {
					t.Fatalf("%s @%s flags %v: MissCurve made %v allocs, want 0", pol.Name(), tech.Name, flags, n)
				}
			}
			for i := range classes {
				cls := &classes[i]
				curve, _ := cf.EnergyCurve(tech, cls.Flags)
				if n := testing.AllocsPerRun(5, func() { evalCurveOverClass(&curve, cls) }); n != 0 {
					t.Fatalf("%s @%s flags %v: evalCurveOverClass made %v allocs, want 0", pol.Name(), tech.Name, cls.Flags, n)
				}
			}
			want := 0.0
			if strings.Contains(pol.Name(), "(") {
				want = 1 // the formatted Policy stamp
			}
			if n := testing.AllocsPerRun(5, func() { EvaluateAggregate(tech, agg, pol) }); n != want {
				t.Fatalf("%s @%s: EvaluateAggregate made %v allocs, want %v", pol.Name(), tech.Name, n, want)
			}
		}
	}
}

// TestPolicyNamesMatchSprintf pins the allocation-light name formatting
// to the fmt spellings the names have always had.
func TestPolicyNamesMatchSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 9, 10, 255, 256, 10000, 1 << 40, math.MaxUint64} {
		for _, c := range []struct {
			pol  Policy
			want string
		}{
			{OPTSleep{Theta: v}, fmt.Sprintf("OPT-Sleep(%d)", v)},
			{SleepDecay{Theta: v}, fmt.Sprintf("Sleep(%d)", v)},
			{PeriodicDrowsy{Window: v}, fmt.Sprintf("Drowsy(%d)", v)},
			{AMCSleep{Theta: v}, fmt.Sprintf("AMC(%d)", v)},
			{Coloring{Colors: v}, fmt.Sprintf("Coloring(%d)", v)},
		} {
			if got := c.pol.Name(); got != c.want {
				t.Errorf("%T name %q, want %q", c.pol, got, c.want)
			}
		}
		if v > 0 {
			if got, want := (OPTHybrid{SleepTheta: v}).Name(), fmt.Sprintf("OPT-Hybrid(%d)", v); got != want {
				t.Errorf("OPTHybrid name %q, want %q", got, want)
			}
		}
	}
	for _, a := range []float64{0, math.Copysign(0, -1), 0.004, 0.005, 0.125, 0.9, 0.995, 1, 12.345, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := (WayMemo{Accuracy: a}).Name(), fmt.Sprintf("WayMemo(%.2f)", a); got != want {
			t.Errorf("WayMemo name %q, want %q", got, want)
		}
	}
}

// positionalLadder returns a seeded ladder of values for one scheme's
// positional parameter, spanning the threshold regimes of every
// technology node (the overheads, the inflection points, the deep tail).
func positionalLadder(rng *rand.Rand, kind ParamKind) []ParamValue {
	var out []ParamValue
	switch kind {
	case UintParam:
		for _, v := range []uint64{0, 1, 2, 3, 36, 37, 38, 1057, 5088, 10328, 1 << 20, 1 << 40} {
			out = append(out, Uint(v))
		}
		for i := 0; i < 32; i++ {
			out = append(out, Uint(uint64(math.Exp2(rng.Float64()*30))))
		}
	case FloatParam:
		out = append(out, Float(0), Float(1))
		for i := 0; i < 32; i++ {
			out = append(out, Float(rng.Float64()))
		}
	}
	return out
}

// TestCurveCapacity pins the largest piece count the builtin closed forms
// reach, over testPolicies and a seeded ladder of every registered
// family's positional parameter, at every technology node and flags
// value: every curve fits the capacity, so no builtin evaluation ever
// leaves the fast path for lack of room.
func TestCurveCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	reg := DefaultRegistry()
	var most int
	for _, tech := range power.Technologies() {
		pols := testPolicies(tech)
		for _, r := range reg.Schemes() {
			sch, ok := r.Schema(r.Positional)
			if !ok {
				continue
			}
			for _, v := range positionalLadder(rng, sch.Kind) {
				pol, err := reg.Build(PolicySpec{Scheme: r.Name, Params: Params{r.Positional: v}}, tech)
				if err != nil {
					continue // outside the family's declared range
				}
				pols = append(pols, pol)
			}
		}
		for _, pol := range pols {
			cf, mc := pol.(ClosedForm), pol.(MissClosedForm)
			for f := 0; f < 64; f++ {
				flags := interval.Flags(f)
				energy, eok := cf.EnergyCurve(tech, flags)
				miss, mok := mc.MissCurve(tech, flags)
				if !eok || !mok {
					t.Fatalf("%s @%s flags %v: curve overflowed (energy ok=%v, miss ok=%v)", pol.Name(), tech.Name, flags, eok, mok)
				}
				most = max(most, energy.n, miss.n)
			}
		}
	}
	if most != builtinMaxPieces {
		t.Fatalf("largest builtin curve has %d pieces, want %d (capacity %d)", most, builtinMaxPieces, maxPieces)
	}
}

// stairs composes, with switchAt, the curve of steps+1 pieces whose value
// is k + slope*L on piece k, the pieces split at k+1.5: for integer
// lengths, k = min(L-1, steps).
func stairs(steps int, slope float64) Curve {
	c := affine(float64(steps), slope)
	for k := steps - 1; k >= 0; k-- {
		low := affine(float64(k), slope)
		low.switchAt(float64(k)+1.5, &c)
		c = low
	}
	return c
}

// stairPolicy is a custom closed-form policy whose curves are stairs: with
// steps >= maxPieces they outgrow the capacity.
type stairPolicy struct{ steps int }

func (stairPolicy) Name() string { return "stairs" }

func (p stairPolicy) IntervalEnergy(t power.Technology, length uint64, _ interval.Flags) float64 {
	return float64(min(length-1, uint64(p.steps))) + t.PActive*float64(length)
}

func (p stairPolicy) IntervalMisses(_ power.Technology, length uint64, _ interval.Flags) float64 {
	return float64(min(length-1, uint64(p.steps)))
}

func (p stairPolicy) EnergyCurve(t power.Technology, _ interval.Flags) (Curve, bool) {
	c := stairs(p.steps, t.PActive)
	return c, c.valid()
}

func (p stairPolicy) MissCurve(power.Technology, interval.Flags) (Curve, bool) {
	c := stairs(p.steps, 0)
	return c, c.valid()
}

// TestCurveOverflow drives each combinator past the capacity: the result
// is marked invalid (never truncated), an invalid operand poisons every
// composition over it, and a full-capacity curve still fits.
func TestCurveOverflow(t *testing.T) {
	if c := stairs(maxPieces-1, 1); c.n != maxPieces {
		t.Fatalf("a %d-piece switchAt ladder has %d pieces", maxPieces, c.n)
	}
	over := stairs(maxPieces, 1)
	if over.valid() {
		t.Fatalf("a %d-piece switchAt ladder fits a capacity of %d", maxPieces+1, maxPieces)
	}

	// pickBelow: two 4-piece curves with interleaved cuts merge into 7
	// segments, one piece each.
	half := maxPieces/2 + 1
	base, alt := stairs(half-1, 1), stairs(half-1, 1)
	for i := 0; i < alt.n-1; i++ {
		alt.p[i].end += 0.5
	}
	base.pickBelow(&alt)
	if base.valid() {
		t.Fatalf("pickBelow over %d interleaved cuts fit: %d pieces", 2*(half-1), base.n)
	}

	// tagTransform: at pActive 1, constant piece i, covering (i+0.5, i+1.5],
	// crosses zero savings at L = i+1, so every piece splits in two.
	tagged := stairs(half-1, 0)
	for i := 0; i < tagged.n; i++ {
		tagged.p[i].cnst = float64(i) + 1
	}
	tagged.tagTransform(0.5, 1)
	if tagged.valid() {
		t.Fatalf("tagTransform of %d splitting pieces fit: %d pieces", half, tagged.n)
	}

	// An overflowed operand poisons every combinator over it.
	fine := affine(0, 1)
	for name, c := range map[string]func() Curve{
		"switchAt low":  func() Curve { c := over; c.switchAt(10, &fine); return c },
		"switchAt high": func() Curve { c := fine; c.switchAt(10, &over); return c },
		"pickBelow":     func() Curve { c := fine; c.pickBelow(&over); return c },
		"tagTransform":  func() Curve { c := over; c.tagTransform(0.5, 1); return c },
		"plusConst":     func() Curve { c := over; c.plusConst(1); return c },
		"plusSlope":     func() Curve { c := over; c.plusSlope(1); return c },
	} {
		if c := c(); c.valid() {
			t.Errorf("%s over an overflowed curve is valid", name)
		}
	}
}

// TestEvaluateAggregateOverflowFallsBack checks the fallback contract: a
// closed form that outgrows the capacity answers ok=false, and
// EvaluateAggregate/InducedMissesAggregate then equal the reference walk
// exactly — results and error sentinels alike. One step less fits and
// stays on the fast path.
func TestEvaluateAggregateOverflowFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tech := power.Default()
	over := stairPolicy{steps: maxPieces}
	if _, ok := over.EnergyCurve(tech, 0); ok {
		t.Fatal("overflowing EnergyCurve reported ok")
	}
	if _, ok := over.MissCurve(tech, 0); ok {
		t.Fatal("overflowing MissCurve reported ok")
	}
	for iter := 0; iter < 10; iter++ {
		d := randomDistribution(rng)
		agg := interval.NewAggregates(d)
		ref, refErr := Evaluate(tech, d, over)
		fast, fastErr := EvaluateAggregate(tech, agg, over)
		if fast != ref || refErr != fastErr {
			t.Fatalf("iter %d: overflow fallback %+v (%v), reference %+v (%v)", iter, fast, fastErr, ref, refErr)
		}
		refMiss, refMissErr := InducedMisses(tech, d, over)
		fastMiss, fastMissErr := InducedMissesAggregate(tech, agg, over)
		if fastMiss != refMiss || refMissErr != fastMissErr {
			t.Fatalf("iter %d: overflow miss fallback %v (%v), reference %v (%v)", iter, fastMiss, fastMissErr, refMiss, refMissErr)
		}

		fits := stairPolicy{steps: maxPieces - 1}
		ref, _ = Evaluate(tech, d, fits)
		fast, _ = EvaluateAggregate(tech, agg, fits)
		if !relClose(fast.Energy, ref.Energy, 1e-9, 1e-12) {
			t.Fatalf("iter %d: full-capacity curve energy %.17g, reference %.17g", iter, fast.Energy, ref.Energy)
		}
	}

	empty := interval.NewDistribution(4, 0)
	bad := tech
	bad.PActive = -1
	for _, c := range []struct {
		name string
		tech power.Technology
		d    *interval.Distribution
	}{
		{"zero mass", tech, empty},
		{"invalid technology", bad, randomDistribution(rng)},
	} {
		_, refErr := Evaluate(c.tech, c.d, over)
		_, fastErr := EvaluateAggregate(c.tech, interval.NewAggregates(c.d), over)
		if refErr == nil || fastErr == nil || refErr.Error() != fastErr.Error() {
			t.Fatalf("%s: reference error %v, aggregate error %v", c.name, refErr, fastErr)
		}
		if c.name == "zero mass" && !errors.Is(fastErr, ErrEmptyDistribution) {
			t.Fatalf("zero mass: want ErrEmptyDistribution, got %v", fastErr)
		}
	}
}
