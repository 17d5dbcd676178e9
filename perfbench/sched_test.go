package main

import "testing"

func TestHeapSched(t *testing.T) {
	cases := []struct {
		name      string
		durations []float64
		k         int
		want      schedPrediction
	}{
		// More workers than jobs: every job runs at once.
		{"k >= n", []float64{3, 1, 2}, 5, schedPrediction{Sorted: 3, InOrder: 3, CP: 3, Area: 6.0 / 5}},
		// One worker runs everything back to back.
		{"k = 1", []float64{3, 1, 2}, 1, schedPrediction{Sorted: 6, InOrder: 6, CP: 3, Area: 6}},
		// In order, both workers take a 1 and the 4 waits for one of them:
		// 1+4 = 5. Longest first, the 4 starts at once and the two 1s
		// share the other worker: 4.
		{"skewed", []float64{1, 1, 4}, 2, schedPrediction{Sorted: 4, InOrder: 5, CP: 4, Area: 3}},
		{"empty", nil, 2, schedPrediction{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := predictParallel(tc.durations, tc.k); got != tc.want {
				t.Fatalf("predictParallel(%v, %d) = %+v, want %+v", tc.durations, tc.k, got, tc.want)
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Fatalf("tail = %g at p%g, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:10]); v != 0 || p != 0 {
		t.Fatalf("tail of 10 samples = %g at p%g, want none", v, p)
	}
	if got := iqm([]float64{100, 1, 2, 3, 4, -50, 5, 6}); got != 3.5 {
		t.Fatalf("iqm = %g, want 3.5", got)
	}
	// Slow and fast rounds alternate; every pair averages 2, whatever the
	// round count. A burst of noise lands in a pair the iqm sets aside.
	alternating := []float64{1, 3, 1, 3, 1, 3, 1, 3, 9, 3, 1}
	if got := roundIQM(alternating); got != 2 {
		t.Fatalf("roundIQM = %g, want 2", got)
	}
}
