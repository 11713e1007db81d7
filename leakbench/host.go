package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts are captured with every run: a timing means little without
// the machine and the parallelism it was taken at.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPUModel = v
	}
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key is key.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0, errors.New("peak resident set: no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("peak resident set: %w", err)
	}
	return kb / 1024, nil
}

// memDelta measures the Go runtime's allocation and GC activity over an
// interval.
type memDelta struct {
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	GCPause    time.Duration
}

// usage is what one unit of work cost: wall time, the process's CPU
// time (user + system, all threads), and Go runtime activity.
type usage struct {
	Wall, CPU time.Duration
	memDelta
}

type usageMark struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func markUsage() *usageMark {
	m := &usageMark{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = processCPU()
	m.wall = time.Now()
	return m
}

func (m *usageMark) since() usage {
	wall := time.Since(m.wall)
	cpu := processCPU() - m.cpu
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return usage{Wall: wall, CPU: cpu, memDelta: memDelta{
		AllocBytes: now.TotalAlloc - m.mem.TotalAlloc,
		Mallocs:    now.Mallocs - m.mem.Mallocs,
		GCCycles:   now.NumGC - m.mem.NumGC,
		GCPause:    time.Duration(now.PauseTotalNs - m.mem.PauseTotalNs),
	}}
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads the machine-wide steal and total ticks from /proc/stat:
// on a virtual machine, time the hypervisor gave this machine's CPUs to
// someone else, which stretches every wall-clock figure of a run.
func cpuSteal() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
