package metrics

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestCPUSampler(t *testing.T) {
	s := NewCPUSampler()
	// Burn some CPU so the sample is positive.
	x := 0.0
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		x += 1.0
		_ = x
	}
	pct := s.Sample()
	if pct <= 0 {
		t.Fatalf("CPU sample = %v, want > 0", pct)
	}
	// Upper bound: cannot exceed 100% per hardware thread by a wide margin.
	if pct > 100*1024 {
		t.Fatalf("CPU sample absurd: %v", pct)
	}
}

func TestHeapMB(t *testing.T) {
	if HeapMB() <= 0 {
		t.Fatal("HeapMB <= 0")
	}
	// Allocate and confirm the number moves upward (roughly). Collect first
	// so garbage from earlier tests (or an earlier -count run of this one)
	// cannot be freed by the allocation below and mask the growth.
	runtime.GC()
	before := HeapMB()
	block := make([]byte, 32<<20)
	for i := range block {
		block[i] = byte(i)
	}
	after := HeapMB()
	if after <= before {
		t.Fatalf("heap did not grow: %v -> %v", before, after)
	}
	_ = block[0]
}

func TestECDFAt(t *testing.T) {
	e := NewECDF()
	if e.At(10) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF broken")
	}
	for _, x := range []float64{1, 2, 2, 3, 10} {
		e.Add(x)
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {11, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF()
	for i := 1; i <= 100; i++ {
		e.Add(float64(i))
	}
	if q := e.Quantile(0.5); q != 50 {
		t.Fatalf("median = %v", q)
	}
	if q := e.Quantile(0.99); q != 99 {
		t.Fatalf("p99 = %v", q)
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 100 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestECDFAddN(t *testing.T) {
	e := NewECDF()
	e.AddN(5, 3)
	e.Add(7)
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	if e.At(5) != 0.75 {
		t.Fatalf("At(5) = %v", e.At(5))
	}
}

func TestECDFSteps(t *testing.T) {
	e := NewECDF()
	for _, x := range []float64{1, 2, 2, 3} {
		e.Add(x)
	}
	steps := e.Steps()
	want := []Point2{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps[%d] = %v, want %v", i, steps[i], want[i])
		}
	}
	if NewECDF().Steps() != nil {
		t.Fatal("empty steps non-nil")
	}
}

// Property: ECDF is monotone nondecreasing and bounded by [0,1].
func TestQuickECDFMonotone(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		e := NewECDF()
		for _, x := range xs {
			e.Add(x)
		}
		prev := -1.0
		// Probe in sorted order of the probes themselves.
		for i := 0; i < len(probes); i++ {
			for j := i + 1; j < len(probes); j++ {
				if probes[j] < probes[i] {
					probes[i], probes[j] = probes[j], probes[i]
				}
			}
		}
		for _, p := range probes {
			v := e.At(p)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Add and At keeps answers consistent with a naive
// count.
func TestQuickECDFMatchesNaive(t *testing.T) {
	f := func(xs []float64, probe float64) bool {
		e := NewECDF()
		count := 0
		for _, x := range xs {
			e.Add(x)
			if x <= probe {
				count++
			}
		}
		if len(xs) == 0 {
			return e.At(probe) == 0
		}
		return e.At(probe) == float64(count)/float64(len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
