// Package stats provides the measurement primitives used by the experiment
// harness: counters, max-gauges, and a log-bucketed latency histogram that can
// absorb hundreds of millions of samples with O(1) memory.
//
// All types are plain (non-atomic) because the simulator is single-threaded;
// the live/shmem layers use sync/atomic directly where needed.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Counter accumulates an int64 total.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v++ }

// Value returns the accumulated total.
func (c *Counter) Value() int64 { return c.v }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v = 0 }

// MaxGauge tracks the maximum value observed.
type MaxGauge struct {
	v   int64
	set bool
}

// Observe records v, keeping the maximum.
func (g *MaxGauge) Observe(v int64) {
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
}

// Value returns the maximum observed value, or 0 if none.
func (g *MaxGauge) Value() int64 { return g.v }

// Hist is a base-2 log-bucketed histogram of non-negative int64 samples
// (latencies in virtual nanoseconds, message sizes, ...). Bucket b holds
// samples whose bit length is b, i.e. values in [2^(b-1), 2^b). Relative
// resolution is a factor of 2, refined inside each bucket by linear
// interpolation when reporting quantiles; that is plenty for the factor-level
// comparisons the paper makes.
type Hist struct {
	buckets [65]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{min: math.MaxInt64} }

// Observe records one sample. Negative samples are clamped to zero (they can
// arise only from cost-model bugs; clamping keeps the histogram total
// consistent while tests catch the bug via Min()).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the sum of all samples.
func (h *Hist) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean of samples, or 0 if empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observed sample, or 0 if empty.
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample, or 0 if empty.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the containing power-of-two bucket.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(h.count)
	var cum float64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / float64(n)
			est := float64(lo) + frac*float64(hi-lo)
			if est < float64(h.min) {
				est = float64(h.min)
			}
			if est > float64(h.max) {
				est = float64(h.max)
			}
			return int64(est)
		}
		cum += float64(n)
	}
	return h.max
}

// HistState is a serializable snapshot of a Hist, the form histograms take
// when they cross a process boundary (the Dist backend's per-process latency
// reports). Zero-suffix buckets are trimmed.
type HistState struct {
	Buckets []int64 `json:"buckets,omitempty"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
}

// State snapshots h. An empty histogram yields the zero HistState (its
// sentinel min is normalized away), so State/FromState round-trips compare
// with reflect.DeepEqual.
func (h *Hist) State() HistState {
	s := HistState{Count: h.count, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		s.Min = h.min
	}
	hi := len(h.buckets)
	for hi > 0 && h.buckets[hi-1] == 0 {
		hi--
	}
	if hi > 0 {
		s.Buckets = append([]int64(nil), h.buckets[:hi]...)
	}
	return s
}

// FromState reconstructs the histogram a State call snapshotted.
func FromState(s HistState) *Hist {
	h := NewHist()
	if s.Count == 0 {
		return h
	}
	copy(h.buckets[:], s.Buckets)
	h.count, h.sum, h.min, h.max = s.Count, s.Sum, s.Min, s.Max
	return h
}

// Merge adds all of other's samples into h.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset empties the histogram.
func (h *Hist) Reset() {
	*h = Hist{min: math.MaxInt64}
}

func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 1
	}
	return 1 << (b - 1), 1 << b
}

// Table renders rows of experiment results as an aligned text table, the
// format printed by cmd/tramlab and recorded in EXPERIMENTS.md.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond len(Columns) are dropped, missing cells
// render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each value is rendered with %v,
// float64 with 4 significant digits.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, FormatFloat(v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// Rows returns the accumulated rows.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (no quoting: cells are
// numeric or simple identifiers).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		sb.WriteString(strings.Join(r, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatFloat renders a float with 4 significant digits, dropping trailing
// zeros, e.g. 0.1235, 12.35, 1235.
func FormatFloat(v float64) string {
	if v == 0 {
		return "0"
	}
	av := math.Abs(v)
	switch {
	case av >= 10000 || av < 0.0001:
		return fmt.Sprintf("%.3e", v)
	default:
		s := fmt.Sprintf("%.*f", decimalsFor(av), v)
		// Trim only fractional zeros: an integer rendering like "2540"
		// (values >= 1000 round to 0 decimals) has significant trailing
		// zeros that must stay.
		if strings.Contains(s, ".") {
			s = strings.TrimRight(s, "0")
			s = strings.TrimRight(s, ".")
		}
		return s
	}
}

func decimalsFor(av float64) int {
	digitsBefore := 1
	if av >= 1 {
		digitsBefore = int(math.Floor(math.Log10(av))) + 1
	} else {
		// count leading zeros after the decimal point
		digitsBefore = -int(math.Floor(math.Log10(av)))
		return digitsBefore + 3
	}
	d := 4 - digitsBefore
	if d < 0 {
		d = 0
	}
	return d
}
