package main

import "testing"

// TestPercentileNearestRank pins the nearest-rank definition: the
// q-quantile of n sorted values is the ceil(q*n)-th smallest (1-based).
// The regression this guards: truncating q*n instead of ceiling it read
// one rank low for every fractional q*n, understating tail latency.
func TestPercentileNearestRank(t *testing.T) {
	tests := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.99, 0},
		{"n=1 p50", []float64{7}, 0.50, 7},
		{"n=1 p99", []float64{7}, 0.99, 7},
		{"n=1 max", []float64{7}, 1, 7},
		{"n=2 p50", []float64{1, 2}, 0.50, 1}, // ceil(1.0) = rank 1
		{"n=2 p90", []float64{1, 2}, 0.90, 2}, // ceil(1.8) = rank 2
		{"n=2 max", []float64{1, 2}, 1, 2},
		{"n=3 p50", []float64{1, 2, 3}, 0.50, 2}, // ceil(1.5) = rank 2
		{"n=3 p90", []float64{1, 2, 3}, 0.90, 3}, // ceil(2.7) = rank 3
		{"n=3 max", []float64{1, 2, 3}, 1, 3},
		{"q=0 clamps to min", []float64{1, 2, 3}, 0, 1},
		// Exact rank: q*n integral reads exactly that rank, no off-by-one.
		{"n=10 p50 exact", seq(10), 0.50, 5},
		{"n=10 p90 exact", seq(10), 0.90, 9},
		{"n=100 p99 exact", seq(100), 0.99, 99},
		// Fractional rank: the old truncating index read one rank low here.
		{"n=10 p99 rounds up", seq(10), 0.99, 10},    // ceil(9.9) = 10, not 9
		{"n=150 p99 rounds up", seq(150), 0.99, 149}, // ceil(148.5) = 149, not 148
		{"n=3 p99 rounds up", []float64{1, 2, 3}, 0.99, 3},
		{"q=1 is the max", seq(1000), 1, 1000},
	}
	for _, tc := range tests {
		if got := percentiles(tc.sorted, tc.q)[0]; got != tc.want {
			t.Errorf("%s: percentiles(n=%d, q=%v) = %v, want %v",
				tc.name, len(tc.sorted), tc.q, got, tc.want)
		}
	}
}

// seq returns [1, 2, ..., n] so value k sits at rank k.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
