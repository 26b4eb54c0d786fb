package main

import (
	"reflect"
	"testing"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ten samples above rank 990
		{999, 0.99, 0, false},   // rank 990 leaves nine above
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(series(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestQuietestKeepsLeastStolenHalf(t *testing.T) {
	values := []float64{10, 20, 30, 40, 50}
	steal := []float64{0.3, 0.0, 0.5, 0.1, 0.2}
	if got := quietest(values, steal); !reflect.DeepEqual(got, []float64{20, 40, 50}) {
		t.Errorf("quietest = %v", got)
	}
	// Samples tied with the last one kept are kept too.
	tied := []float64{0.3, 0.0, 0.1, 0.1, 0.1}
	if got := quietest(values, tied); !reflect.DeepEqual(got, []float64{20, 30, 40, 50}) {
		t.Errorf("quietest with ties = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps child 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, []int64{50, 30, 20, 30}) {
		t.Errorf("self times = %v", got)
	}
}
