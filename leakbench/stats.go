package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one or two unlucky samples, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 75, 50}

// tail is a timing's tail figure: the value at percentile P of N samples.
type tail struct {
	P     float64
	Value float64
	N     int
	// Qualified is false when even the median has fewer than minBeyond
	// samples beyond it; Value is then the median.
	Qualified bool
}

// rank returns the 1-based nearest-rank index of percentile p in n
// sorted samples. The small slack keeps p/100*n from rounding up past an
// exact integer (0.999*10000 is 9990.000000000002 in floating point).
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailOf applies the reporting rule: the highest percentile on tailLadder
// with at least minBeyond samples beyond it.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{P: 50, Value: math.NaN()}
	}
	for _, p := range tailLadder {
		r := rank(p, n)
		if n-r >= minBeyond {
			return tail{P: p, Value: s[r-1], N: n, Qualified: true}
		}
	}
	return tail{P: 50, Value: s[rank(50, n)-1], N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// relClose reports whether a and b agree to relative tolerance tol.
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol*math.Max(math.Abs(a), math.Abs(b)) || d == 0
}
