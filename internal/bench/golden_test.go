package bench

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures_tiny*.golden from this tree's output")

// goldenFigures are the figures the routing plan decides: PingAck (3), the
// histogram scaling and flush-dominated sweeps (9, 11), index-gather latency
// and time (12/13) and PHOLD (18).
var goldenFigures = []string{"3", "9", "11", "12", "18"}

// goldenPath names the committed tables for this architecture. Every column is
// virtual time or a count, but PHOLD draws its delays through math.Log, whose
// pure-Go polynomial the compiler may fuse into multiply-adds on arm64,
// ppc64le, s390x and riscv64 — so the file is keyed by GOARCH: amd64 (no
// fusing) owns the unsuffixed name, any other architecture its own file.
func goldenPath() string {
	name := "figures_tiny.golden"
	if runtime.GOARCH != "amd64" {
		name = "figures_tiny_" + runtime.GOARCH + ".golden"
	}
	return filepath.Join("testdata", name)
}

// TestFiguresMatchGolden pins the simulator's output to the byte across
// commits, not only across -j values of one binary: the tables tramlab prints
// for goldenFigures at tiny() scale (`tramlab -fig 3,9,11,12,18 -workerdiv 16
// -itemdiv 256 -nodes 4 -seed 1 -quiet`, which `./check.sh golden-figure`
// diffs against the same file) must equal the committed ones. A change that
// means to move a simulated number regenerates the file with
// `go test ./internal/bench -run TestFiguresMatchGolden -update` and says so.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny figures still take seconds")
	}
	figs, unknown := Select(goldenFigures)
	if unknown != "" {
		t.Fatalf("unknown figure %q", unknown)
	}
	var sb strings.Builder
	for _, f := range figs {
		for _, tb := range f.Run(tiny()) {
			sb.WriteString(tb.String())
			sb.WriteByte('\n')
		}
	}
	got := sb.String()
	path := goldenPath()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		t.Skipf("no golden tables for GOARCH=%s (%s); generate them with -update on a tree known to be good", runtime.GOARCH, path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("simulated figures differ from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}
