package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// specPath is where the benchmark's contract lives, relative to the checkout
// root the benchmark runs from.
const specPath = "BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json: the metrics, workloads and regression
// bounds this program measures. The program reads it rather than repeating
// it, so a name that drifts between the two fails the run instead of
// silently going unreported.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may get
	// worse before a change counts as a regression. End-to-end metrics only.
	Bound float64 `json:"bound,omitempty"`
}

// Limits of the benchmark contract.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
	setupMetric  = "setup_s"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, fmt.Errorf("read benchmark contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return benchSpec{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return benchSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate checks the naming and counting rules of the contract.
func (s benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRe.MatchString(name) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
		}
		endToEnd := i < len(s.EndToEnd)
		if endToEnd && (m.Bound <= 0 || m.Bound > maxBound) {
			return fmt.Errorf("metric %s: bound %v, want (0, %v]", m.Name, m.Bound, maxBound)
		}
		if !endToEnd && m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if endToEnd && m.Name == setupMetric {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics need %s (unit s, lower is better)", setupMetric)
	}
	return nil
}

func (s benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// worseBy returns the share of base by which cur is worse (negative when cur
// is better), in the direction the metric names.
func (m metricSpec) worseBy(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// Verdicts of a comparison of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares a baseline and a candidate run of an end-to-end metric. A
// reported value whose own spread is wider than the bound, on either side,
// means the runs cannot tell a regression of that size from noise, which is
// reported as such rather than as "unchanged".
func (m metricSpec) verdict(base, cur summary) string {
	if base.medianSpread() > m.Bound || cur.medianSpread() > m.Bound {
		return verdictUnresolved
	}
	if m.worseBy(base.Median, cur.Median) > m.Bound {
		return verdictRegressed
	}
	return verdictOK
}
