package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compare applies BENCHMARK.json's bounds to two suite results — typically a
// parent commit and a change, both taken with the same seed on the same
// machine — and prints one row per workload and end-to-end metric.

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json CANDIDATE.json")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	base, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cand, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := comparable(base, cand); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to compare:", err)
		return 2
	}
	if !compareSuites(os.Stdout, spec, base, cand) {
		return 1
	}
	return 0
}

func readSuite(path string) (suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return suiteResult{}, err
	}
	var s suiteResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return suiteResult{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// comparable reports why two results must not be compared: numbers taken on
// a different machine shape, toolchain, seed or run length differ for
// reasons that have nothing to do with the code.
func comparable(a, b suiteResult) error {
	switch {
	case a.Nproc != b.Nproc:
		return fmt.Errorf("nproc %d vs %d", a.Nproc, b.Nproc)
	case a.GoMaxProcs != b.GoMaxProcs:
		return fmt.Errorf("GOMAXPROCS %d vs %d", a.GoMaxProcs, b.GoMaxProcs)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke:
		return fmt.Errorf("run length %vs (smoke %v) vs %vs (smoke %v)", a.Seconds, a.Smoke, b.Seconds, b.Smoke)
	}
	return nil
}

func (s suiteResult) outcome(workload string) (outcome, bool) {
	for _, o := range s.Workloads {
		if o.Workload == workload {
			return o, true
		}
	}
	return outcome{}, false
}

// compareSuites prints the comparison and reports whether every row is ok
// and both sides passed their output checks.
func compareSuites(w io.Writer, spec benchSpec, base, cand suiteResult) bool {
	allOK := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase iqr\tcand median\tcand iqr\tworse by\tbound\tverdict")
	for _, ws := range spec.Workloads {
		bo, okB := base.outcome(ws.Name)
		co, okC := cand.outcome(ws.Name)
		if !okB || !okC {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tmissing\n", ws.Name)
			allOK = false
			continue
		}
		if bo.Failed != 0 || co.Failed != 0 {
			fmt.Fprintf(tw, "%s\toutput checks\t-\t%d failed\t-\t%d failed\t-\t-\t0\t%s\n", ws.Name, bo.Failed, co.Failed, verdictRegressed)
			allOK = false
		}
		for _, m := range spec.EndToEnd {
			b, c := bo.EndToEnd[m.Name], co.EndToEnd[m.Name]
			v := m.verdict(b, c)
			allOK = allOK && v == verdictOK
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				ws.Name, m.Name, m.Unit, b.Median, b.Q3-b.Q1, c.Median, c.Q3-c.Q1,
				100*m.worseBy(b.Median, c.Median), 100*m.Bound, v)
		}
	}
	tw.Flush()

	// Per-layer metrics have no bound: they are listed, where both results
	// carry them, to show which layer an end-to-end change came from.
	header := false
	for _, ws := range spec.Workloads {
		bo, _ := base.outcome(ws.Name)
		co, _ := cand.outcome(ws.Name)
		if bo.PerLayer == nil || co.PerLayer == nil {
			continue
		}
		if !header {
			fmt.Fprintln(w)
			fmt.Fprintln(tw, "workload\tlayer metric\tunit\tbase\tcand\tchange")
			header = true
		}
		for _, m := range spec.PerLayer {
			b, c := bo.PerLayer[m.Name], co.PerLayer[m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\n", ws.Name, m.Name, m.Unit, b, c, 100*ratio(c-b, b))
		}
	}
	tw.Flush()
	return allOK
}
