package main

import (
	"runtime"
	"sync"
	"time"
)

// The host-speed probe. The benchmark shares its machine with other
// virtual machines, and their load changes how fast this code runs by
// 20-50% from one minute to the next. A fixed kernel that never calls into
// leakbound is timed on either side of every unit of work, and each
// timing of the unit is divided by how much slower than on the reference
// host the probe ran around it. A change to leakbound moves the reported
// figures in full; a change of the host's load moves the probe and the
// work together and cancels. NOTES.md gives the measurements behind this.

const (
	// probeBytes is the probe's working set: past the 4 MiB private L2 of
	// the reference host, inside its shared L3, so the probe feels the
	// neighbours' cache and memory traffic as the workloads do.
	probeBytes = 16 << 20
	// probeSteps is how many read-modify-write steps each probe
	// goroutine makes per sample: about 44 ms on the reference host.
	probeSteps = 1 << 18
	// probeRefWallMS and probeRefCPUMS are the probe's median wall time
	// per sample and CPU time per sample and goroutine on the reference
	// host (NOTES.md).
	probeRefWallMS = 44.0
	probeRefCPUMS  = 42.0
)

// slowdown is how many times slower than on the reference host the probe
// ran, by wall time and by CPU time.
type slowdown struct{ Wall, CPU float64 }

// noSlowdown scales nothing: traced runs, which take no samples.
var noSlowdown = slowdown{1, 1}

func meanSlowdown(a, b slowdown) slowdown {
	return slowdown{(a.Wall + b.Wall) / 2, (a.CPU + b.CPU) / 2}
}

// speedProbe times the probe kernel and keeps every sample.
type speedProbe struct {
	buf     []uint64
	sums    []uint64 // one per worker
	samples []slowdown
	sink    uint64
}

// newSpeedProbe returns a probe that runs its kernel on workers
// goroutines at once.
func newSpeedProbe(workers int) *speedProbe {
	return &speedProbe{buf: make([]uint64, probeBytes/8), sums: make([]uint64, max(1, workers))}
}

// sample collects the heap, so no collection runs beside the kernel,
// then runs the kernel once on every worker and returns its slowdown. The
// kernel allocates nothing on the heap, so its time does not depend on
// the size of the program's heap. A nil probe takes no sample.
func (p *speedProbe) sample() slowdown {
	if p == nil {
		return noSlowdown
	}
	runtime.GC()
	workers := len(p.sums)
	part := 1 // a power of two, for probeKernel's index mask
	for part*2 <= len(p.buf)/workers {
		part *= 2
	}
	var wg sync.WaitGroup
	cpu0, wall0 := processCPU(), time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.sums[w] = probeKernel(p.buf[w*part:(w+1)*part], uint64(w)+1)
		}(w)
	}
	wg.Wait()
	wall, cpu := time.Since(wall0), processCPU()-cpu0
	for _, s := range p.sums {
		p.sink += s
	}
	s := slowdown{
		Wall: float64(wall.Nanoseconds()) / 1e6 / probeRefWallMS,
		CPU:  float64(cpu.Nanoseconds()) / 1e6 / (probeRefCPUMS * float64(workers)),
	}
	p.samples = append(p.samples, s)
	return s
}

// probeKernel makes probeSteps pseudo-random read-modify-write steps over
// buf, whose length must be a power of two.
func probeKernel(buf []uint64, x uint64) uint64 {
	mask := uint64(len(buf) - 1)
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 29) & mask
		buf[j] += x
		x ^= buf[(j+1)&mask] >> 7
	}
	return x
}

// around runs fn between two probe samples and returns their mean
// slowdown: the latest sample taken before fn (a fresh one if there is
// none) and one taken right after it. Back-to-back calls share the
// sample between them. A nil probe runs fn alone and scales nothing.
func (p *speedProbe) around(fn func()) slowdown {
	if p == nil {
		fn()
		return noSlowdown
	}
	var before slowdown
	if n := len(p.samples); n > 0 {
		before = p.samples[n-1]
	} else {
		before = p.sample()
	}
	fn()
	return meanSlowdown(before, p.sample())
}

// summary returns the median slowdown over every sample of the run and
// the number of samples.
func (p *speedProbe) summary() (slowdown, int) {
	if p == nil || len(p.samples) == 0 {
		return noSlowdown, 0
	}
	return medianSlowdown(p.samples), len(p.samples)
}

func medianSlowdown(ss []slowdown) slowdown {
	wall := make([]float64, len(ss))
	cpu := make([]float64, len(ss))
	for i, s := range ss {
		wall[i], cpu[i] = s.Wall, s.CPU
	}
	return slowdown{median(wall), median(cpu)}
}
