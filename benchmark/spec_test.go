package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// repoSpec is the contract the repository ships, seen from this directory.
var repoSpec = filepath.Join("..", specPath)

func validSpec() benchSpec {
	return benchSpec{
		RunSeconds: 10,
		Workloads:  []workloadSpec{{"a", "first"}, {"b", "second"}},
		EndToEnd: []metricSpec{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []metricSpec{{Name: "wire.encode_ns_per_item.runs", Unit: "ns", Better: "lower"}},
	}
}

func TestSpecValidation(t *testing.T) {
	if err := validSpec().validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	metrics := func(n int) []metricSpec {
		ms := make([]metricSpec, n)
		for i := range ms {
			ms[i] = metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "ns", Better: "lower"}
		}
		return ms
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"one workload":         func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"nine workloads":       func(s *benchSpec) { s.Workloads = make([]workloadSpec, 9) },
		"name with a space":    func(s *benchSpec) { s.Workloads[0].Name = "a b" },
		"name starting with .": func(s *benchSpec) { s.Workloads[0].Name = ".a" },
		"name of 65":           func(s *benchSpec) { s.Workloads[0].Name = strings.Repeat("a", 65) },
		"name used twice":      func(s *benchSpec) { s.PerLayer[0].Name = "items_per_s" },
		"empty why":            func(s *benchSpec) { s.Workloads[1].Why = "" },
		"why of 201":           func(s *benchSpec) { s.Workloads[1].Why = strings.Repeat("y", 201) },
		"unit with a space":    func(s *benchSpec) { s.EndToEnd[1].Unit = "per s" },
		"unit of 17":           func(s *benchSpec) { s.EndToEnd[1].Unit = strings.Repeat("u", 17) },
		"better sideways":      func(s *benchSpec) { s.EndToEnd[1].Better = "sideways" },
		"bound above a fourth": func(s *benchSpec) { s.EndToEnd[1].Bound = 0.26 },
		"no bound":             func(s *benchSpec) { s.EndToEnd[1].Bound = 0 },
		"bound on a layer":     func(s *benchSpec) { s.PerLayer[0].Bound = 0.1 },
		"no setup_s":           func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] },
		"setup_s in ms":        func(s *benchSpec) { s.EndToEnd[0].Unit = "ms" },
		"17 end-to-end":        func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, metrics(15)...) },
		"129 per-layer":        func(s *benchSpec) { s.PerLayer = metrics(129) },
		"no per-layer":         func(s *benchSpec) { s.PerLayer = nil },
		"61 seconds":           func(s *benchSpec) { s.RunSeconds = 61 },
	} {
		s := validSpec()
		breakIt(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := validSpec()
	ok.Workloads[0].Name = strings.Repeat("a", 64)
	ok.PerLayer = metrics(128)
	if err := ok.validate(); err != nil {
		t.Errorf("spec at the limits rejected: %v", err)
	}
}

func TestBoundArithmetic(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	if got := lower.worseBy(100, 112); !near(got, 0.12) {
		t.Errorf("lower-is-better 100 -> 112: worse by %v", got)
	}
	if got := higher.worseBy(100, 88); !near(got, 0.12) {
		t.Errorf("higher-is-better 100 -> 88: worse by %v", got)
	}
	if got := higher.worseBy(100, 130); !near(got, -0.30) {
		t.Errorf("an improvement should be negative, got %v", got)
	}
	steady := func(m float64) summary { return summarize([]float64{m * 0.99, m, m, m * 1.01}) }
	noisy := func(m float64) summary { return summarize([]float64{m * 0.8, m * 0.9, m * 1.1, m * 1.2}) }
	for _, tc := range []struct {
		m         metricSpec
		base, cur summary
		want      string
	}{
		{lower, steady(100), steady(109), verdictOK},
		{lower, steady(100), steady(111), verdictRegressed},
		{lower, steady(100), steady(50), verdictOK},
		{higher, steady(100), steady(91), verdictOK},
		{higher, steady(100), steady(89), verdictRegressed},
		{higher, noisy(100), steady(100), verdictUnresolved},
		{higher, steady(100), noisy(60), verdictUnresolved},
	} {
		if got := tc.m.verdict(tc.base, tc.cur); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.m.Name, tc.base.Median, tc.cur.Median, got, tc.want)
		}
	}
}

// The shipped contract parses, obeys its own rules, and names exactly the
// workloads and metrics this program produces.
func TestRepositoryContract(t *testing.T) {
	spec, err := loadSpec(repoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}
