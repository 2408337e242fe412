package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Counter = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestMaxGauge(t *testing.T) {
	var g MaxGauge
	if g.Value() != 0 {
		t.Fatal("empty gauge not zero")
	}
	g.Observe(-5)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5", g.Value())
	}
	g.Observe(10)
	g.Observe(3)
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10", g.Value())
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist()
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 110 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m != 22 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist()
	h.Observe(-10)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	h := NewHist()
	r := uint64(12345)
	for i := 0; i < 10000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		h.Observe(int64(r >> 40))
	}
	prev := int64(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles should equal min/max")
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	// Uniform samples 0..2^20: median estimate must be within one
	// power-of-two bucket (factor 2) of truth.
	h := NewHist()
	for i := int64(0); i < 1<<20; i++ {
		h.Observe(i)
	}
	med := h.Quantile(0.5)
	truth := int64(1 << 19)
	if med < truth/2 || med > truth*2 {
		t.Fatalf("median estimate %d too far from %d", med, truth)
	}
}

func TestHistMergeProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		h1, h2, hall := NewHist(), NewHist(), NewHist()
		for _, v := range a {
			h1.Observe(int64(v))
			hall.Observe(int64(v))
		}
		for _, v := range b {
			h2.Observe(int64(v))
			hall.Observe(int64(v))
		}
		h1.Merge(h2)
		return h1.Count() == hall.Count() && h1.Sum() == hall.Sum() &&
			h1.Min() == hall.Min() && h1.Max() == hall.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistStateRoundTrip checks that State/FromState (including a JSON hop,
// the way Dist worker reports travel) reproduces the histogram exactly.
func TestHistStateRoundTrip(t *testing.T) {
	f := func(a []uint16) bool {
		h := NewHist()
		for _, v := range a {
			h.Observe(int64(v))
		}
		blob, err := json.Marshal(h.State())
		if err != nil {
			return false
		}
		var s HistState
		if err := json.Unmarshal(blob, &s); err != nil {
			return false
		}
		got := FromState(s)
		if got.Count() != h.Count() || got.Sum() != h.Sum() ||
			got.Min() != h.Min() || got.Max() != h.Max() {
			return false
		}
		// Quantiles come from the buckets; spot-check a few.
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got.Quantile(q) != h.Quantile(q) {
				return false
			}
		}
		// A reconstructed histogram must keep merging correctly.
		got.Observe(7)
		return got.Count() == h.Count()+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Empty histogram: zero state, and FromState keeps Min() semantics.
	var s HistState
	blob, _ := json.Marshal(NewHist().State())
	json.Unmarshal(blob, &s)
	if h := FromState(s); h.Count() != 0 || h.Min() != 0 {
		t.Fatalf("empty round-trip: count=%d min=%d", h.Count(), h.Min())
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(7)
	if h.Min() != 7 {
		t.Fatalf("Min after reset+observe = %d", h.Min())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "nodes", "WW", "WPs")
	tb.AddRowf(2, 0.5, 0.25)
	tb.AddRowf(4, 1.0, 0.5)
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "WPs") {
		t.Error("missing headers")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d: %q", len(lines), out)
	}
	// Columns must align: header and rows have same prefix widths.
	if len(lines[1]) == 0 || lines[2][0] != '-' {
		t.Fatalf("no rule line: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "2")
	got := tb.CSV()
	want := "a,b\n1,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5"},
		{0.1235, "0.1235"},
		{12.348, "12.35"},
		{1234.8, "1235"},
		// Integer renderings keep their significant trailing zeros
		// (regression: these used to print as "254", "15", "1").
		{2540.2, "2540"},
		{1500.4, "1500"},
		{1000, "1000"},
		{123456, "1.235e+05"},
		{0.00001234, "1.234e-05"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHist()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xfffff))
	}
}
