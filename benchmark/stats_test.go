package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.3, 3.2, 2.7, 3.6, 3.5}, 2.875, 3.15, 3.425},
	} {
		s := summarize(tc.v)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.q2) || !near(s.Q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, s.Q1, s.Median, s.Q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	one := summarize([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 || one.spread() != 0 || one.N != 1 {
		t.Errorf("single value: %+v", one)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("no values: %+v", s)
	}
	s := summarize([]float64{10, 30, 20, 40})
	if s.Min != 10 || s.Max != 40 || s.Median != 25 {
		t.Errorf("summary %+v", s)
	}
	if want := (37.5 - 12.5) / 25; !near(s.spread(), want) {
		t.Errorf("spread %v, want %v", s.spread(), want)
	}
	if s.Raw[0] != 10 || s.Raw[3] != 40 {
		t.Errorf("raw values reordered: %v", s.Raw)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	if got := sortedCopy([]int64{3, 1}, nil, []int64{2}); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("sortedCopy = %v", got)
	}
}
