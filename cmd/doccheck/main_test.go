package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fixture repository under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// greenTree is a minimal repository every check passes on.
func greenTree() map[string]string {
	return map[string]string{
		"tram/config.go":                      "package tram\n\nconst TransportTCP = \"tcp\"\n\ntype Config struct {\n\tBufferItems int\n\tDist DistOptions\n}\n\nfunc (c Config) Validate() error { return nil }\n\ntype DistOptions struct{ Hosts []string }\n",
		"internal/faultinject/faultinject.go": "package faultinject\n\nconst PointTCPWrite = \"transport.tcp-write\"\n",
		".github/workflows/ci.yml":            "name: ci\njobs:\n  test:\n    runs-on: x\n  docs:\n    runs-on: x\n",
		"ARCHITECTURE.md":                     "# Arch\n\nSee [README.md](README.md). The `tram.Config` type.\n",
		"docs/DEPLOY.md":                      "# Deploy\n\nUse `transport.tcp-write:drop:proc=1` and `Transport: \"tcp\"`.\nBack to [../ARCHITECTURE.md](../ARCHITECTURE.md).\n",
		"docs/SERVE.md":                       "# Serve\n\nSee [DEPLOY.md](DEPLOY.md); the `tram.Config` type again.\n",
		"docs/TUNING.md":                      "# Tuning\n\nKnobs live on `tram.Config`; see [SERVE.md](SERVE.md). `Config.Validate` checks `Config.BufferItems` and `Config.Dist.Hosts`.\n\n| Knob | Meaning |\n|---|---|\n| `BufferItems` | g |\n| `Hosts` | machines |\n\nAfter the table.\n",
		"docs/PERF.md":                        "# Perf\n\nRun `benchmark/run.sh`; workloads are named in `BENCHMARK.json`.\n",
		"benchmark/run.sh":                    "#!/bin/sh\n",
		"BENCHMARK.json":                      "{}\n",
		"README.md":                           "# Repo\n\nci.yml runs two jobs:\n\n- **test** — build.\n- **docs** — `cmd/doccheck` over [ARCHITECTURE.md](ARCHITECTURE.md)\n  and [docs/DEPLOY.md](docs/DEPLOY.md); see `internal/faultinject`.\n",
		"cmd/doccheck/main.go":                "package main\n",
	}
}

func TestGreenTreePasses(t *testing.T) {
	c := run(writeTree(t, greenTree()))
	if len(c.problems) != 0 {
		t.Fatalf("clean fixture reported problems: %v", c.problems)
	}
	if c.checked == 0 {
		t.Fatal("no claims checked — the scanners matched nothing")
	}
}

func TestDriftIsCaught(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(map[string]string)
		want   string // substring of the expected problem
	}{
		{
			name: "broken link",
			mutate: func(f map[string]string) {
				f["README.md"] = strings.Replace(f["README.md"], "(ARCHITECTURE.md)", "(MISSING.md)", 1)
			},
			want: "broken link",
		},
		{
			name: "stale tram identifier",
			mutate: func(f map[string]string) {
				f["ARCHITECTURE.md"] = strings.Replace(f["ARCHITECTURE.md"], "`tram.Config`", "`tram.Gone`", 1)
			},
			want: "no longer exists in the tram package",
		},
		{
			name: "unknown fault point",
			mutate: func(f map[string]string) {
				f["docs/DEPLOY.md"] = strings.Replace(f["docs/DEPLOY.md"],
					"transport.tcp-write:drop", "transport.udp-write:drop", 1)
			},
			want: "not declared in internal/faultinject",
		},
		{
			name: "unknown transport kind",
			mutate: func(f map[string]string) {
				f["docs/DEPLOY.md"] = strings.Replace(f["docs/DEPLOY.md"],
					"`Transport: \"tcp\"`", "`Transport: \"quic\"`", 1)
			},
			want: "unknown to tram/config.go",
		},
		{
			name: "missing repo path",
			mutate: func(f map[string]string) {
				f["README.md"] = strings.Replace(f["README.md"], "`cmd/doccheck`", "`cmd/nonesuch`", 1)
			},
			want: "does not exist",
		},
		{
			name: "stale root file",
			mutate: func(f map[string]string) {
				f["docs/PERF.md"] = strings.Replace(f["docs/PERF.md"], "`BENCHMARK.json`", "`BENCH_gone.json`", 1)
			},
			want: "`BENCH_gone.json` references BENCH_gone.json, which does not exist",
		},
		{
			name: "stale config field",
			mutate: func(f map[string]string) {
				f["docs/TUNING.md"] = strings.Replace(f["docs/TUNING.md"], "`Config.BufferItems`", "`Config.BufferLocal`", 1)
			},
			want: "`Config.BufferLocal` is a stale config field: tram.Config has no field BufferLocal",
		},
		{
			name: "stale config field in an option block",
			mutate: func(f map[string]string) {
				f["docs/TUNING.md"] = strings.Replace(f["docs/TUNING.md"], "`Config.Dist.Hosts`", "`Config.Dist.Machines`", 1)
			},
			want: "stale config field: tram.DistOptions has no field Machines",
		},
		{
			name: "stale config field in a knob table",
			mutate: func(f map[string]string) {
				f["docs/TUNING.md"] = strings.Replace(f["docs/TUNING.md"], "| `BufferItems` | g |", "| `BufferLocal` | g |", 1)
			},
			want: "knob table row `BufferLocal` is a stale config field",
		},
		{
			name: "CI job not listed",
			mutate: func(f map[string]string) {
				f[".github/workflows/ci.yml"] += "  chaos:\n    runs-on: x\n"
				f["README.md"] = strings.Replace(f["README.md"], "runs two jobs", "runs three jobs", 1)
			},
			want: `CI job "chaos" is not listed`,
		},
		{
			name: "stale job count",
			mutate: func(f map[string]string) {
				f["README.md"] = strings.Replace(f["README.md"], "runs two jobs", "runs seven jobs", 1)
			},
			want: "claims ci.yml runs seven jobs, but it declares 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := greenTree()
			tc.mutate(files)
			c := run(writeTree(t, files))
			if len(c.problems) != 1 {
				t.Fatalf("want exactly 1 problem, got %d: %v", len(c.problems), c.problems)
			}
			if !strings.Contains(c.problems[0], tc.want) {
				t.Fatalf("problem %q does not mention %q", c.problems[0], tc.want)
			}
		})
	}
}

// TestFencedCodeIsIgnored pins the rule that code blocks are illustrative:
// a broken-looking link or stale name inside ``` fences must not fail.
func TestFencedCodeIsIgnored(t *testing.T) {
	files := greenTree()
	files["README.md"] += "\n```go\nlib := tram.NewLib[T](codec) // [T](codec) parses like a link\nx := `tram.NotAThing`\n```\n"
	c := run(writeTree(t, files))
	if len(c.problems) != 0 {
		t.Fatalf("fenced code produced problems: %v", c.problems)
	}
}

// TestRealRepo runs the checker against the actual repository this test
// lives in, so `go test ./cmd/doccheck` is the same gate CI's docs job runs.
func TestRealRepo(t *testing.T) {
	c := run(filepath.Join("..", ".."))
	for _, p := range c.problems {
		t.Error(p)
	}
	if c.checked < 50 {
		t.Fatalf("only %d claims checked against the real repo — scanners lost coverage", c.checked)
	}
}
