// This file holds the call-chain cases: taint reaching any function of
// the result-producing package through a call chain is a finding at the
// call site.

package leakage

import (
	"time"

	"example.com/internal/telemetry"
	"example.com/util"
)

// Evaluate reaches time.Now two calls deep.
func Evaluate(n int) int64 {
	return int64(n) + util.Wrap() // want `call chain reaches time.Now \(via util.Wrap → util.Stamp\)`
}

// Keys reaches map-iteration-order dependence one call deep.
func Keys(m map[string]int) []string {
	return util.Collect(m) // want `call chain reaches map iteration order \(via util.Collect\)`
}

// KeysSorted calls the clean variant: no finding.
func KeysSorted(m map[string]int) []string {
	return util.CollectSorted(m)
}

// Reviewed calls a source that carries a determinism suppression: the
// human sign-off holds transitively.
func Reviewed() int64 {
	return util.Sanctioned()
}

// Observed calls into the telemetry barrier: observational clock reads do
// not taint results.
func Observed() int64 {
	return telemetry.TimeIt()
}

// Direct uses the clock in its own body: a direct hazard inside a sink is
// reported in place, not as a call chain.
func Direct() time.Time {
	return time.Now() // want `time.Now in result-producing package`
}
