package main

import (
	"math"
	"slices"
	"sort"
)

// summary describes the timed repetitions of one metric. Median is the value
// the benchmark reports; the rest says how far to trust it.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// summarize reduces per-rep values (in rep order) to their summary.
func summarize(raw []float64) summary {
	s := summary{N: len(raw), Raw: raw}
	if len(raw) == 0 {
		return s
	}
	sorted := append([]float64(nil), raw...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	return s
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), because that is the rule the acceptance
// spread is computed by. sorted must be ascending and non-empty; fewer than
// two values have no spread, so all three cuts are that value.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of v (mean of the two middle values when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	_, m, _ := quartiles(sorted)
	return m
}

// spread is the interquartile range of the reps as a share of their median.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// medianSpread is the interquartile range to expect of the reported value —
// the median of N reps — were the invocation repeated, as a share of it: the
// reps' own spread scaled by 1.2533/sqrt(N), the normal-theory ratio of a
// median's standard error to a single value's. It is the steadiness figure a
// bound is compared with. It knows nothing of what differs between whole
// invocations (README.md, "Protocol and measured spread").
func (s summary) medianSpread() float64 {
	if s.N < 2 {
		return 0
	}
	return s.spread() * 1.2533 / math.Sqrt(float64(s.N))
}

// quantile returns the q-quantile of ascending samples by nearest rank (no
// interpolation: every reported latency is one that was observed).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	} else if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy merges sample slices into one ascending slice.
func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]int64, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.Sort(all)
	return all
}
