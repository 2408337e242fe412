package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tramlib/tram"
)

// The Dist workloads re-exec the running binary — here the test binary — as
// their worker processes.
func TestMain(m *testing.M) {
	tram.Main()
	os.Exit(m.Run())
}

// TestSmoke runs all eight workloads at 1/64 scale, one rep each, untraced
// and traced, and checks that every declared metric comes out: it proves the
// plumbing, and measures nothing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(repoSpec)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 7, seconds: 1, smoke: true, outDir: t.TempDir()}
	var suite suiteResult
	for _, w := range workloads {
		out, err := measure(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, out.Correct, out.Attempted, out.Failed)
		}
		for _, m := range spec.EndToEnd {
			s, ok := out.EndToEnd[m.Name]
			if !ok || s.N < 1 || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s (%s) missing or not positive: %+v", w.name, m.Name, m.Unit, s)
			}
		}

		o.trace = true
		traced, err := measureTraced(w, o)
		o.trace = false
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run failed %d of %d", w.name, traced.Failed, traced.Attempted)
		}
		for _, m := range spec.PerLayer {
			if _, ok := traced.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s (%s) missing", w.name, m.Name, m.Unit)
			}
		}
		if len(traced.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, %d declared", w.name, len(traced.PerLayer), len(spec.PerLayer))
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		out.PerLayer = traced.PerLayer
		suite.Workloads = append(suite.Workloads, out)
	}

	// A result compared with itself has not regressed (set-up, two cycles at
	// this scale, may well be unresolved); one whose rate halved has.
	var report bytes.Buffer
	compareSuites(&report, spec, suite, suite)
	if strings.Contains(report.String(), verdictRegressed) {
		t.Errorf("a result has regressed against itself:\n%s", report.String())
	}
	worse := suite
	worse.Workloads = append([]outcome(nil), suite.Workloads...)
	slow := worse.Workloads[0]
	slow.EndToEnd = map[string]summary{}
	for name, s := range suite.Workloads[0].EndToEnd {
		slow.EndToEnd[name] = s
	}
	slow.EndToEnd[mItems] = summarize([]float64{suite.Workloads[0].EndToEnd[mItems].Median / 2})
	worse.Workloads[0] = slow
	report.Reset()
	if compareSuites(&report, spec, suite, worse) || !strings.Contains(report.String(), verdictRegressed) {
		t.Errorf("a halved rate was not reported as regressed:\n%s", report.String())
	}
	if err := comparable(suiteResult{Seed: 1}, suiteResult{Seed: 2}); err == nil {
		t.Error("results of different seeds were accepted for comparison")
	}
}
