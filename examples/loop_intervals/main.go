// Loop intervals: the paper's Figure 2 example, executed.
//
// The paper motivates interval analysis with a two-level loop from a
// human-resource application: the interval between consecutive executions
// of the `add: total += sum` instruction depends on the inner loop's range
// |high(i) - low(i)|. Small ranges keep the add line active; medium ranges
// make drowsy optimal; large ranges make sleep optimal.
//
// This example builds exactly that loop as a synthetic workload, runs it
// through the timing simulator for several inner-loop ranges, extracts the
// add line's access intervals, and shows which operating mode the
// inflection points assign.
//
//	go run ./examples/loop_intervals
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// figure2Loop is the paper's example program:
//
//	for (total = 0, i = 0; i < 12; i++) {
//	    for (sum = 0, j = low(i); j < high(i); j++)
//	        sum += a[j];
//	    sum *= i;
//	    add: total += sum;
//	}
type figure2Loop struct {
	innerRange int // |high(i) - low(i)|
}

func (f *figure2Loop) Name() string        { return fmt.Sprintf("figure2(range=%d)", f.innerRange) }
func (f *figure2Loop) Description() string { return "the paper's two-level loop example" }

// Code layout: the inner loop body lives in its own cache lines; the
// `add` instruction sits on a separate line so its intervals are clean.
const (
	innerPC = 0x400000 // inner loop body: sum += a[j]
	addPC   = 0x400100 // the add: total += sum line (line 0x10004)
	arrayA  = 0x10000000
)

func (f *figure2Loop) Emit(yield func(workload.Instr) bool) {
	emit := func(in workload.Instr) bool { return yield(in) }
	for i := 0; i < 12; i++ {
		// Inner loop: load a[j], add — 4 instructions per iteration.
		for j := 0; j < f.innerRange; j++ {
			if !emit(workload.Instr{PC: innerPC, Kind: workload.Load, Addr: arrayA + uint64(j)*4}) {
				return
			}
			for k := 1; k < 4; k++ {
				if !emit(workload.Instr{PC: innerPC + uint64(k)*4, Kind: workload.Op}) {
					return
				}
			}
		}
		// sum *= i; add: total += sum (the instrumented line).
		for k := 0; k < 4; k++ {
			if !emit(workload.Instr{PC: addPC + uint64(k)*4, Kind: workload.Op}) {
				return
			}
		}
	}
}

func main() {
	tech := power.Default()
	a, b, err := tech.InflectionPoints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inflection points at %s: a=%.0f, b=%.0f cycles\n\n", tech.Name, a, b)

	t := report.NewTable("The add line's access intervals vs the inner loop range (Figure 2)",
		"inner range", "median interval (cycles)", "optimal mode")
	for _, rng := range []int{2, 40, 400, 4000} {
		med, err := addLineInterval(rng)
		if err != nil {
			log.Fatal(err)
		}
		mode, err := leakage.OptimalMode(tech, med)
		if err != nil {
			log.Fatal(err)
		}
		t.MustAddRow(fmt.Sprintf("%d", rng), fmt.Sprintf("%.0f", med), mode.String())
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nExactly the paper's point: the same static instruction wants a different")
	fmt.Println("power mode depending on a loop bound the hardware cannot see — which is")
	fmt.Println("why an oracle (or a prefetcher approximating one) is needed to pick it.")
}

// addLineInterval simulates the loop and returns the median interior
// interval of the cache frame holding the add instruction.
func addLineInterval(innerRange int) (float64, error) {
	w := &figure2Loop{innerRange: innerRange}
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		return 0, err
	}
	// Find the frame the add line will occupy by probing after a warmup
	// run is wasteful; instead collect intervals for all frames and read
	// the add line's set.
	col, err := interval.NewCollector(trace.L1I, uint32(hier.L1I().Config().NumLines()), nil)
	if err != nil {
		return 0, err
	}
	addLine := uint64(addPC) >> 6
	var addFrame uint32
	seen := false
	var sinkErr error
	res, err := cpu.RunStreamContext(context.Background(), w, hier, cpu.DefaultConfig(), cpu.EachEvent(func(e trace.Event) {
		if sinkErr != nil || e.Cache != trace.L1I {
			return
		}
		if e.LineAddr == addLine {
			addFrame = e.Frame
			seen = true
		}
		sinkErr = col.Add(e)
	}))
	if err != nil {
		return 0, err
	}
	if sinkErr != nil {
		return 0, sinkErr
	}
	if !seen {
		return 0, fmt.Errorf("add line never fetched")
	}
	dist, err := col.Finish(res.Cycles)
	if err != nil {
		return 0, err
	}
	_ = addFrame
	// The add line's interior intervals dominate its frame; take the
	// median interior interval length near the add line's reuse period.
	var lengths []float64
	dist.Each(func(l uint64, f interval.Flags, c uint64) bool {
		if f.Interior() {
			for i := uint64(0); i < c; i++ {
				lengths = append(lengths, float64(l))
			}
		}
		return true
	})
	if len(lengths) == 0 {
		return 0, fmt.Errorf("no interior intervals")
	}
	// The outer loop runs 12 times; the add line closes 11 interior
	// intervals, which are the longest in this tiny program. Take the
	// median of the top 11.
	top := topK(lengths, 11)
	return median(top), nil
}

func topK(xs []float64, k int) []float64 {
	out := make([]float64, 0, k)
	tmp := append([]float64(nil), xs...)
	for i := 0; i < k && len(tmp) > 0; i++ {
		best := 0
		for j := range tmp {
			if tmp[j] > tmp[best] {
				best = j
			}
		}
		out = append(out, tmp[best])
		tmp = append(tmp[:best], tmp[best+1:]...)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	for i := range tmp {
		for j := i + 1; j < len(tmp); j++ {
			if tmp[j] < tmp[i] {
				tmp[i], tmp[j] = tmp[j], tmp[i]
			}
		}
	}
	return tmp[len(tmp)/2]
}
