package bench

import (
	"runtime"
	"testing"

	"tramlib/internal/stats"
)

// render flattens a figure's tables to one comparable string.
func render(tables []*stats.Table) string {
	s := ""
	for _, tb := range tables {
		s += tb.CSV()
	}
	return s
}

// TestHarnessJobsDeterminism is the parallel harness's contract: for a fixed
// seed, a figure's tables are byte-identical whether its points run on one
// worker or on every core.
func TestHarnessJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figures several times")
	}
	o := tiny()
	for _, f := range []Figure{mustLookup(t, "9"), mustLookup(t, "11"), mustLookup(t, "18")} {
		f := f
		t.Run("fig"+f.IDs[0], func(t *testing.T) {
			seq := o
			seq.Jobs = 1
			par := o
			par.Jobs = runtime.NumCPU()
			a := render(f.Run(seq))
			b := render(f.Run(par))
			if a != b {
				t.Fatalf("fig %s output differs between -j 1 and -j %d:\n%s\nvs\n%s",
					f.IDs[0], par.Jobs, a, b)
			}
		})
	}
}

// TestHarnessRepeatedRunsIdentical checks that repeated parallel runs are
// identical too (no cross-point state sneaks in through the worker pool).
func TestHarnessRepeatedRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figures several times")
	}
	o := tiny()
	o.Jobs = runtime.NumCPU()
	f := mustLookup(t, "11")
	if a, b := render(f.Run(o)), render(f.Run(o)); a != b {
		t.Fatalf("fig 11 output differs between repeated parallel runs:\n%s\nvs\n%s", a, b)
	}
}

func mustLookup(t *testing.T, id string) Figure {
	t.Helper()
	f, ok := Lookup(id)
	if !ok {
		t.Fatalf("figure %q missing", id)
	}
	return f
}
