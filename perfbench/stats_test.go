package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// TestPercentileCountsSamples checks a percentile carries its sample
// count.
func TestPercentileCountsSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1
	}
	p := percentileOf(xs, 0.99)
	if p.Samples != 1000 {
		t.Fatalf("samples = %d", p.Samples)
	}
	if math.Abs(p.Value-990.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 990.01", p.Value)
	}
	if p := percentileOf(nil, 0.99); p.Samples != 0 || !math.IsNaN(p.Value) {
		t.Fatalf("empty p99 = %+v", p)
	}
}
