// Package leakage is a determinism fixture standing in for a
// result-producing package (its import path ends in internal/leakage, so
// the analyzer applies).
package leakage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// started is a package-level initialiser: it belongs to no function, yet
// it is result-package code all the same.
var started = time.Now() // want `time.Now in result-producing package`

// Clock reads the wall clock in the result path.
func Clock() int64 {
	t := time.Now() // want `time.Now in result-producing package`
	return t.Unix()
}

// SuppressedClock demonstrates directive suppression.
func SuppressedClock() int64 {
	//lint:ignore determinism fixture: telemetry-only wall clock
	t := time.Now()
	return t.Unix()
}

// Random draws from math/rand in the result path.
func Random() int {
	return rand.Intn(8) // want `math/rand in result-producing package`
}

// PrintMap hands a map straight to fmt.
func PrintMap(m map[string]float64) string {
	return fmt.Sprint(m) // want `map passed to fmt.Sprint`
}

// CollectUnsorted appends in map iteration order and never sorts.
func CollectUnsorted(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in map iteration order without a later sort`
	}
	return keys
}

// CollectSorted is the canonical fix: collect, then sort.
func CollectSorted(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SumFloats accumulates floats in map iteration order; float addition is
// not associative, so the total depends on the order.
func SumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point accumulation into total in map iteration order`
	}
	return total
}

// SumInts is fine: integer addition is associative.
func SumInts(m map[string]int) int {
	var total int
	for _, v := range m {
		total += v
	}
	return total
}

// EmitUnsorted prints during map iteration.
func EmitUnsorted(m map[string]int, sb *strings.Builder) {
	for k := range m {
		fmt.Println(k)    // want `fmt.Println inside a map range`
		sb.WriteString(k) // want `WriteString call inside a map range`
	}
}

// RangeSlice is fine: slices iterate in index order.
func RangeSlice(vs []float64) float64 {
	var total float64
	for _, v := range vs {
		total += v
	}
	return total
}
