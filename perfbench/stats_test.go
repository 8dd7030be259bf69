package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestTailPercentileKeepsTenSamplesBeyond pins the rule: the highest
// candidate percentile with at least ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9.999 beyond p99.9 is too few
		{2400, 99},
		{1000, 99}, // exactly 10 beyond
		{999, 95},
		{200, 95},
		{199, 90},
		{40, 75},
		{39, 50}, // too few for any tail: the median
		{3, 50},
	} {
		p, v := tailPercentile(seq(c.n))
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.wantP)
			continue
		}
		if want := percentile(seq(c.n), p); v != want {
			t.Errorf("n=%d: tail value %v, want %v", c.n, v, want)
		}
		if beyond := float64(c.n) * (100 - p) / 100; p > 50 && beyond < minTailSamples-1e-9 {
			t.Errorf("n=%d: only %v samples beyond p%v", c.n, beyond, p)
		}
	}
}
