package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"tramlib/internal/stats"
	"tramlib/tram"
)

func TestMain(m *testing.M) {
	tram.Main() // dist worker processes (DistTables) run their share here and exit
	os.Exit(m.Run())
}

// tiny returns options small enough for unit testing every figure runner.
func tiny() Options {
	return Options{WorkerDiv: 16, ItemDiv: 256, IGItemDiv: 2048, NodesCap: 4, Seed: 1}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.WorkerDiv != 1 || o.ItemDiv != 1 || o.Seed != 1 {
		t.Fatalf("bad normalization: %+v", o)
	}
	if o.IGItemDiv != 8 {
		t.Fatalf("IGItemDiv default = %d, want 8", o.IGItemDiv)
	}
}

func TestScaledTopologyPreservesRatios(t *testing.T) {
	// The scaling rule: items-per-destination-worker and
	// items-per-destination-process are invariant under scale.
	paper := Options{WorkerDiv: 1, ItemDiv: 1}.normalized()
	scaled := Options{WorkerDiv: 4, ItemDiv: 4}.normalized()
	for _, nodes := range []int{2, 8, 64} {
		tp, ts := paper.smpTopo(nodes), scaled.smpTopo(nodes)
		zp, zs := paper.items(1<<20), scaled.items(1<<20)
		perWorkerP := float64(zp) / float64(tp.TotalWorkers())
		perWorkerS := float64(zs) / float64(ts.TotalWorkers())
		if perWorkerP != perWorkerS {
			t.Fatalf("items/dest-worker changed: %v vs %v", perWorkerP, perWorkerS)
		}
		perProcP := float64(zp) / float64(tp.TotalProcs())
		perProcS := float64(zs) / float64(ts.TotalProcs())
		if perProcP != perProcS {
			t.Fatalf("items/dest-proc changed: %v vs %v", perProcP, perProcS)
		}
		if ts.WorkersPerProc != tp.WorkersPerProc {
			t.Fatalf("workers per process changed: %d vs %d", ts.WorkersPerProc, tp.WorkersPerProc)
		}
	}
}

func TestNodesCap(t *testing.T) {
	o := Options{NodesCap: 8}.normalized()
	got := o.nodes([]int{2, 4, 8, 16, 32})
	if len(got) != 3 || got[2] != 8 {
		t.Fatalf("nodes cap wrong: %v", got)
	}
	o.NodesCap = 1
	if got := o.nodes([]int{2, 4}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("minimum sweep wrong: %v", got)
	}
}

func TestLookup(t *testing.T) {
	for _, id := range []string{"1", "3", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "a1"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("figure %q missing", id)
		}
	}
	if _, ok := Lookup("99"); ok {
		t.Error("bogus figure found")
	}
	// A paired figure is one runner reachable under either id.
	if f, _ := Lookup("13"); len(f.IDs) != 2 || f.IDs[0] != "12" || f.IDs[1] != "13" {
		t.Errorf("Lookup(13).IDs = %v, want [12 13]", f.IDs)
	}

	ids := func(figs []Figure) string {
		var s []string
		for _, f := range figs {
			s = append(s, f.IDs[0])
		}
		return strings.Join(s, ",")
	}
	// Naming both ids of a pair resolves to one runner, so its tables print
	// once; order follows the request.
	if figs, unknown := Select([]string{"12", "13"}); unknown != "" || ids(figs) != "12" {
		t.Errorf("Select(12,13) = %s (unknown %q), want one runner", ids(figs), unknown)
	}
	if figs, _ := Select([]string{"17", "9", "16", "9"}); ids(figs) != "16,9" {
		t.Errorf("Select(17,9,16,9) = %s, want 16,9", ids(figs))
	}
	if figs, unknown := Select([]string{"9", "99"}); figs != nil || unknown != "99" {
		t.Errorf("Select(9,99) = %s, unknown %q", ids(figs), unknown)
	}
}

// TestEveryFigureRunsTiny executes each figure runner end-to-end at a tiny
// scale and sanity-checks the table shape.
func TestEveryFigureRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny figures still take seconds")
	}
	o := tiny()
	for _, f := range Figures() {
		t.Run("fig"+f.IDs[0], func(t *testing.T) {
			tables := f.Run(o)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows()) == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				out := tb.String()
				if !strings.Contains(out, "\n") {
					t.Fatalf("table %q did not render", tb.Title)
				}
				// Every data cell in numeric columns parses.
				for _, row := range tb.Rows() {
					for i, cell := range row {
						if i == 0 || cell == "-" || cell == "" {
							continue
						}
						if _, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64); err != nil {
							// Columns like config names are free-form;
							// only flag obviously broken cells.
							if strings.ContainsAny(cell, "%!(") {
								t.Fatalf("table %q cell %q looks like a formatting error", tb.Title, cell)
							}
						}
					}
				}
			}
		})
	}
}

// checkTables asserts what every comparison table promises: rows exist and
// every correctness column (*_ok) reads "yes".
func checkTables(t *testing.T, tables []*stats.Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tb := range tables {
		if len(tb.Rows()) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
		for c, col := range tb.Columns {
			if !strings.HasSuffix(col, "_ok") {
				continue
			}
			for _, row := range tb.Rows() {
				if row[c] != "yes" {
					t.Errorf("table %q row %q: %s = %q, want yes", tb.Title, row[0], col, row[c])
				}
			}
		}
	}
}

// TestComparisonTablesTiny runs what cmd/tramlab's -real, -backend dist and
// -adaptive modes run, at a tiny scale, and holds their correctness columns:
// exactly-once delivery on the goroutine runtime, element-wise identical
// tables across real OS processes on every transport, and every paced event
// delivered under both flush policies.
func TestComparisonTablesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and paces wall-clock traffic")
	}
	o := Options{ItemDiv: 256, Seed: 1}
	t.Run("real", func(t *testing.T) { checkTables(t, RealTables(o)) })
	for _, tr := range []string{"socket", "shm"} {
		t.Run("dist-"+tr, func(t *testing.T) {
			o := o
			o.DistTransport = tr
			checkTables(t, DistTables(o))
		})
	}
	t.Run("adaptive", func(t *testing.T) {
		tables := AdaptiveTables(o)
		checkTables(t, tables)
		rows := tables[0].Rows()
		if len(rows) != 2*len(adaptiveShapes) {
			t.Fatalf("%d rows, want %d", len(rows), 2*len(adaptiveShapes))
		}
		want := strconv.Itoa(adaptiveGens * adaptiveSteps)
		for _, row := range rows {
			if row[2] != want { // "delivered"
				t.Errorf("adaptive %s/%s delivered %s of %s events", row[0], row[1], row[2], want)
			}
		}
	})
}
