// Command benchmark is this repository's one benchmark: eight named
// workloads, measured end to end and — in a traced run — layer by layer, from
// outside the program (see README.md beside this file, and BENCHMARK.json at
// the repository root for the contract it is run by).
//
//	bash benchmark/run.sh --workload real-hist-pp --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh [-seed N] [-trace 1]     # the whole suite, results under benchmark/out
//	bash benchmark/run.sh compare A.json B.json    # apply the bounds to two suite results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tramlib/tram"

	// The Dist workloads' worker processes re-exec this binary and look
	// their application up by name: these imports carry the registrations.
	_ "tramlib/internal/apps/histogram"
	_ "tramlib/internal/apps/indexgather"
	_ "tramlib/internal/apps/serveagg"
)

func main() {
	// In a worker process spawned by a Dist run this never returns.
	tram.Main()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one reported metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: the whole suite)")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 0, "seconds one run measures (default: BENCHMARK.json run_seconds)")
		trace   = fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes span files")
		smoke   = fs.Bool("smoke", false, "1/64 of every size and one rep: checks plumbing, measures nothing")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := checkDeclared(spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, trace: *trace != 0, outDir: *outDir}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if *name == "" {
		return runSuite(spec, o)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	run := measure
	if o.trace {
		run = measureTraced
	}
	out, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line := resultLine{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	if o.trace {
		for _, m := range spec.PerLayer {
			line.Metrics[m.Name] = metricValue{Value: out.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			line.Metrics[m.Name] = metricValue{Value: out.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed their output check\n", w.name, out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// checkDeclared fails when BENCHMARK.json and this program disagree about
// which workloads and metrics exist.
func checkDeclared(spec benchSpec) error {
	for _, w := range workloads {
		if !spec.workload(w.name) {
			return fmt.Errorf("workload %s is not declared in %s", w.name, specPath)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s declares %d workloads, the program has %d", specPath, len(spec.Workloads), len(workloads))
	}
	if err := sameNames("end-to-end", spec.EndToEnd, []string{mSetup, mItems, mCPU, mLatP50, mLatP95}); err != nil {
		return err
	}
	return sameNames("per-layer", spec.PerLayer, perLayerNames())
}

func sameNames(kind string, declared []metricSpec, produced []string) error {
	have := map[string]bool{}
	for _, n := range produced {
		have[n] = true
	}
	for _, m := range declared {
		if !have[m.Name] {
			return fmt.Errorf("%s metric %s is declared in %s but not measured", kind, m.Name, specPath)
		}
		delete(have, m.Name)
	}
	for n := range have {
		return fmt.Errorf("%s metric %s is measured but not declared in %s", kind, n, specPath)
	}
	return nil
}

// suiteResult is the file a whole-suite run writes: every workload's
// outcome with per-rep raw values, and the environment they were taken in
// (two results are comparable only when these agree).
type suiteResult struct {
	Nproc       int       `json:"nproc"`
	GoMaxProcs  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	Commit      string    `json:"commit"`
	Seed        uint64    `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Smoke       bool      `json:"smoke,omitempty"`
	Started     time.Time `json:"started"`
	WallSeconds float64   `json:"wall_s"`
	Workloads   []outcome `json:"workloads"`
}

// commitID names the source the binary was built from: the VCS revision when
// the build recorded one, otherwise "unknown" (a checkout without .git).
func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runSuite measures every workload in turn, prints each metric by name, and
// writes the result file.
func runSuite(spec benchSpec, o options) int {
	res := suiteResult{
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Started: time.Now().UTC(),
	}
	began := time.Now()
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		untraced := o
		untraced.trace = false
		out, err := measure(w, untraced)
		if err == nil && o.trace {
			var traced outcome
			if traced, err = measureTraced(w, o); err == nil {
				out.PerLayer = traced.PerLayer
				out.Attempted += traced.Attempted
				out.Failed += traced.Failed
				out.Correct = out.Failed == 0
				out.WallSeconds += traced.WallSeconds
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printOutcome(spec, out)
		ok = ok && out.Correct
		res.Workloads = append(res.Workloads, out)
	}
	res.WallSeconds = time.Since(began).Seconds()
	path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("suite: %d workloads in %.1f s, result written to %s\n", len(res.Workloads), res.WallSeconds, path)
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

func printOutcome(spec benchSpec, out outcome) {
	fmt.Printf("%s: attempted %d, failed %d, invalid latency reps %d\n", out.Workload, out.Attempted, out.Failed, out.InvalidReps)
	for _, m := range spec.EndToEnd {
		s := out.EndToEnd[m.Name]
		fmt.Printf("  %-18s %14.4f %-8s q1 %.4f  q3 %.4f  min %.4f  max %.4f  n %d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	if out.PerLayer == nil {
		return
	}
	for _, m := range spec.PerLayer {
		fmt.Printf("  %-44s %14.4f %s\n", m.Name, out.PerLayer[m.Name], m.Unit)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
