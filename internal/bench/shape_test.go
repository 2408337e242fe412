package bench

import (
	"strconv"
	"testing"

	"tramlib/internal/stats"
)

// The paper's claims about the figures the routing plan decides, as
// assertions. Each test states the scale it runs at and its tolerance; the
// cells carry four significant digits, far finer than any margin below. The
// simulator is deterministic, so a failure is a changed model, never noise.

// column returns table tb's named column as numbers, one per row.
func column(t *testing.T, tb *stats.Table, name string) []float64 {
	t.Helper()
	for c, col := range tb.Columns {
		if col != name {
			continue
		}
		out := make([]float64, len(tb.Rows()))
		for r, row := range tb.Rows() {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("table %q row %d column %s: %v", tb.Title, r, name, err)
			}
			out[r] = v
		}
		return out
	}
	t.Fatalf("table %q has no column %s (has %v)", tb.Title, name, tb.Columns)
	return nil
}

// TestShapeFig12LatencyOrdering: index-gather mean request latency is ordered
// PP < WPs < WW at every node count (Fig. 12) — the fewer sources feed a
// buffer's destination, the longer an item waits for it to fill. Run at
// tiny() scale; each step must be lower by at least 10 % (measured: 39–59 %).
func TestShapeFig12LatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny figures still take seconds")
	}
	lat := Fig12and13(tiny())[0]
	nodes, ww, wps, pp := column(t, lat, "nodes"), column(t, lat, "WW"), column(t, lat, "WPs"), column(t, lat, "PP")
	for i := range nodes {
		if !(pp[i] <= 0.9*wps[i] && wps[i] <= 0.9*ww[i]) {
			t.Errorf("%v nodes: latency PP %v, WPs %v, WW %v us — want PP < WPs < WW, each by 10%%", nodes[i], pp[i], wps[i], ww[i])
		}
	}
}

// TestShapeFig11FlushDominated: with few updates per PE, WW is slower than WPs
// from 8 nodes on and falls further behind as nodes are added, while PP stays
// near WPs (Fig. 11). Run at WorkerDiv = ItemDiv = 8 — equal divisors keep the
// paper's items-per-destination, so the crossover lands on the paper's node
// count — over 2–16 nodes. Tolerances: WW ≥ 5 % slower than WPs at 8 nodes and
// ≥ 40 % at 16 (measured 9 % and 69 %); PP within 40 % of WPs from 8 nodes
// (measured 29–32 %), and nearer to WPs than WW is at 16.
func TestShapeFig11FlushDominated(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16-node sweep takes seconds")
	}
	tb := Fig11(Options{WorkerDiv: 8, ItemDiv: 8, NodesCap: 16, Seed: 1})[0]
	nodes, ww, wps, pp := column(t, tb, "nodes"), column(t, tb, "WW_g512"), column(t, tb, "WPs_g1024"), column(t, tb, "PP_g1024")
	if last := nodes[len(nodes)-1]; last != 16 {
		t.Fatalf("sweep ends at %v nodes, want 16", last)
	}
	for i, n := range nodes {
		if n < 8 {
			continue
		}
		slower := map[float64]float64{8: 1.05, 16: 1.40}[n]
		if ww[i] < slower*wps[i] {
			t.Errorf("%v nodes: WW %v s vs WPs %v s — want WW slower by a factor ≥ %v", n, ww[i], wps[i], slower)
		}
		if pp[i] > 1.4*wps[i] {
			t.Errorf("%v nodes: PP %v s vs WPs %v s — want PP within 40%% of WPs", n, pp[i], wps[i])
		}
		if n == 16 && pp[i] >= ww[i] {
			t.Errorf("16 nodes: PP %v s is no nearer to WPs %v s than WW %v s", pp[i], wps[i], ww[i])
		}
	}
}

// TestShapeFig9WWStopsScaling: in the weak-scaling histogram WW's time grows
// once a source holds fewer than one buffer's worth of items per destination
// worker, z/(N·t) < g — its buffers stop filling and every one is flushed
// partial — while WPs, whose buffers are per process, stays flat (Fig. 9).
// Run at WorkerDiv 8, ItemDiv 64: z = 16384 and g = 1024 put the threshold
// between 2 and 4 nodes of 8 workers, inside a sweep a unit test can afford
// (the paper's own threshold, past 16 nodes of 64 workers, is not). Tolerances:
// past the threshold WW grows by ≥ 5 % per doubling of nodes and ≥ 1.5× in
// all (measured 10–47 % and 2.2×); WPs never exceeds its at-threshold time by
// more than 10 % (measured: it falls throughout).
func TestShapeFig9WWStopsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16-node sweep takes seconds")
	}
	o := Options{WorkerDiv: 8, ItemDiv: 64, NodesCap: 16, Seed: 1}.normalized()
	const g = 1024 // Fig9's buffer size
	z := o.items(1 << 20)
	tb := Fig9(o)[0]
	nodes, ww, wps := column(t, tb, "nodes"), column(t, tb, "WW"), column(t, tb, "WPs")

	// at is the last row whose buffers still fill: z/(N·t) >= g.
	at := -1
	for i, n := range nodes {
		if z/o.smpTopo(int(n)).TotalWorkers() >= g {
			at = i
		}
	}
	if at < 0 || at > len(nodes)-3 {
		t.Fatalf("threshold row %d of %d: the sweep does not straddle z/(N·t) = g", at, len(nodes))
	}
	for i := at + 1; i < len(nodes); i++ {
		if ww[i] < 1.05*ww[i-1] {
			t.Errorf("%v -> %v nodes: WW %v -> %v s — want growth ≥ 5%% once z/(N·t) < g", nodes[i-1], nodes[i], ww[i-1], ww[i])
		}
		if wps[i] > 1.1*wps[at] {
			t.Errorf("%v nodes: WPs %v s vs %v s at the threshold — want flat (≤ +10%%)", nodes[i], wps[i], wps[at])
		}
	}
	if last := len(nodes) - 1; ww[last] < 1.5*ww[at] {
		t.Errorf("WW %v s at %v nodes vs %v s at the threshold — want ≥ 1.5×", ww[last], nodes[last], ww[at])
	}
}
