package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what one repetition consumed, taken from outside the program
// under test: wall clock, getrusage and the runtime's allocation counters.
type cost struct {
	wall, cpu time.Duration
	allocMB   float64
	peakRSSMB float64
	gcPause   time.Duration
	numGC     uint32
}

// meter brackets one repetition. The repetition starts from a collected
// heap so that one repetition's garbage is not billed to the next, and
// from a resident-set high-water mark reset to what is resident now, so
// that every repetition leaves a mark of its own to take the median of.
type meter struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	// Writing 5 to clear_refs resets VmHWM to the current VmRSS.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		panic(fmt.Sprintf("resetting peak RSS: %v", err)) // the harness cannot measure without it
	}
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() cost {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss, err := peakRSSMB()
	if err != nil {
		panic(fmt.Sprintf("reading peak RSS: %v", err)) // /proc/self/status is always there on Linux
	}
	return cost{
		wall:      wall,
		cpu:       cpu,
		allocMB:   float64(ms.TotalAlloc-m.ms.TotalAlloc) / 1e6,
		peakRSSMB: rss,
		gcPause:   time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs),
		numGC:     ms.NumGC - m.ms.NumGC,
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median of a non-empty sample; the mean of the middle two when even.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
