// Package metrics provides the measurement side of the evaluation: process
// CPU and heap sampling for the resource figures (Figs 2 and 3) and
// ECDF/CDF helpers for the distribution figures (Figs 5, 6, 8, 9).
//
// The paper reports CPU as percentages of a core (2500 % ≈ 25 cores busy)
// and memory in GB on a 128-core machine. We sample the same primitives at
// laptop scale: getrusage(2) user+system time deltas for CPU, and
// runtime.ReadMemStats heap numbers for memory. Absolute values differ from
// the paper's testbed by construction; the figures compare *shapes* across
// time and across variants.
package metrics

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// CPUSampler measures process CPU usage (user+system) between samples.
type CPUSampler struct {
	lastCPU  time.Duration
	lastWall time.Time
}

// NewCPUSampler primes the sampler at the current instant.
func NewCPUSampler() *CPUSampler {
	s := &CPUSampler{}
	s.lastCPU = processCPU()
	s.lastWall = time.Now()
	return s
}

// Sample returns the CPU utilization since the previous sample, in percent
// of one core (100 = one core fully busy), and resets the window.
func (s *CPUSampler) Sample() float64 {
	nowCPU := processCPU()
	nowWall := time.Now()
	dCPU := nowCPU - s.lastCPU
	dWall := nowWall.Sub(s.lastWall)
	s.lastCPU, s.lastWall = nowCPU, nowWall
	if dWall <= 0 {
		return 0
	}
	return 100 * float64(dCPU) / float64(dWall)
}

// processCPU returns total user+system CPU time consumed by the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// HeapMB returns the live heap size in MiB.
func HeapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ECDF is an empirical cumulative distribution over float64 samples.
type ECDF struct {
	sorted bool
	xs     []float64
}

// NewECDF returns an empty distribution.
func NewECDF() *ECDF { return &ECDF{} }

// Add inserts a sample.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.xs) }

func (e *ECDF) ensureSorted() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// At returns P(X <= x), 0 for an empty distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	// First index with xs[i] > x.
	i := sort.SearchFloat64s(e.xs, x)
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank method.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensureSorted()
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	idx := int(q*float64(len(e.xs))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.xs[idx]
}

// Steps returns (x, P(X<=x)) pairs at the distinct sample values — the
// plottable ECDF curve.
func (e *ECDF) Steps() []Point2 {
	if len(e.xs) == 0 {
		return nil
	}
	e.ensureSorted()
	var out []Point2
	n := float64(len(e.xs))
	for i := 0; i < len(e.xs); i++ {
		if i+1 == len(e.xs) || e.xs[i+1] != e.xs[i] {
			out = append(out, Point2{X: e.xs[i], Y: float64(i+1) / n})
		}
	}
	return out
}

// Point2 is an (x, y) pair of a plottable curve.
type Point2 struct {
	X, Y float64
}
