// Command doccheck gates the documentation layer in CI. The prose documents
// (README.md, ARCHITECTURE.md, docs/DEPLOY.md, docs/SERVE.md, docs/TUNING.md,
// docs/PERF.md) make checkable claims —
// links to files in this repository, names of identifiers in the tram
// package, fault-injection point strings, transport kind strings, and the
// list of CI jobs — and every one of those claims rots silently when the
// code moves. doccheck re-derives each claim from the source of truth and
// fails on drift:
//
//   - Intra-repo markdown links ([text](path)) must resolve to an existing
//     file or directory.
//   - Backticked tram.<Name> identifiers must still exist in the tram
//     package sources.
//   - Backticked repo paths (internal/..., cmd/..., examples/..., docs/...,
//     tram/..., benchmark/...) and root-level file names (*.json, *.sh,
//     *.md) must still exist.
//   - Fault-injection specs (point:action...) must name a point constant
//     declared in internal/faultinject.
//   - Transport kind strings quoted as `Transport: "..."` must appear in
//     tram/config.go.
//   - Backticked option paths (`Config.X`, `Dist.X`, `Adaptive.X`, `Serve.X`,
//     chained as in `Config.Dist.Hosts`) and the first column of a knob table
//     must name a field (or method) of tram.Config, tram.DistOptions,
//     rt.Adaptive or tram.ServeOptions, read from the source with go/parser.
//   - The README's CI section must bold-list every job id declared in
//     .github/workflows/ci.yml, and its spelled-out job count must match.
//
// Usage:
//
//	doccheck [-root .]
//
// Exits 0 with a summary when everything checks out, 1 with one line per
// problem otherwise.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docFiles are the prose documents under contract, relative to the root.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "docs/DEPLOY.md", "docs/SERVE.md", "docs/TUNING.md", "docs/PERF.md"}

var (
	linkRe  = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	tickRe  = regexp.MustCompile("`([^`]+)`")
	tramRe  = regexp.MustCompile(`^tram\.([A-Za-z_]\w*)`)
	pathRe  = regexp.MustCompile(`^(?:internal|cmd|examples|docs|tram|benchmark)(?:/[\w.*-]+)*/?$`)
	rootRe  = regexp.MustCompile(`^[\w.-]+\.(?:json|sh|md)$`)
	faultRe = regexp.MustCompile(`^([a-z][a-z0-9.-]*):(?:crash|stall|drop|error)\b`)
	kindRe  = regexp.MustCompile(`^Transport: ("(?:\w+)")$`)
	optRe   = regexp.MustCompile(`^(?:tram\.)?((?:Config|Dist|Adaptive|Serve)(?:\.[A-Z]\w*)+)`)
	knobRe  = regexp.MustCompile("(?m)^\\|\\s*Knob\\s*\\|.*\n\\|[-| :]+\\|\n((?:\\|.*\n?)+)")
	cellRe  = regexp.MustCompile("(?m)^\\|\\s*`(\\w+)`")
	jobRe   = regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)
	strRe   = regexp.MustCompile(`"([a-z][a-z0-9.-]*)"`)
	countRe = regexp.MustCompile(`runs ([a-z]+) jobs`)
	fenceRe = regexp.MustCompile("(?s)```.*?```")
)

// numberWords maps the spelled-out job counts the README may use.
var numberWords = map[string]int{
	"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
	"seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}

// optionStructs maps the name the docs use for an option block — also the
// name of the tram.Config field holding it — to the struct that declares its
// knobs, as "directory.Type".
var optionStructs = map[string]string{
	"Config":   "tram.Config",
	"Dist":     "tram.DistOptions",
	"Adaptive": "internal/rt.Adaptive",
	"Serve":    "tram.ServeOptions",
}

type checker struct {
	root     string
	problems []string
	checked  int
	// members caches, per optionStructs value, the struct's field and method
	// names (nil if the struct was not found).
	members map[string]map[string]bool
}

func (c *checker) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// readDir concatenates every .go file directly inside dir (tests included:
// the docs reference test-suite structure too).
func (c *checker) readDir(dir string) string {
	entries, err := os.ReadDir(filepath.Join(c.root, dir))
	if err != nil {
		c.failf("%s: %v", dir, err)
		return ""
	}
	var b strings.Builder
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(c.root, dir, e.Name()))
		if err != nil {
			c.failf("%s: %v", e.Name(), err)
			continue
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

func (c *checker) exists(rel string) bool {
	_, err := os.Stat(filepath.Join(c.root, rel))
	return err == nil
}

// checkLinks resolves every intra-repo markdown link relative to the
// document that makes it.
func (c *checker) checkLinks(doc, text string) {
	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		c.checked++
		rel := filepath.Join(filepath.Dir(doc), target)
		if !c.exists(rel) {
			c.failf("%s: broken link %q (resolved %s)", doc, m[1], rel)
		}
	}
}

// checkTokens validates the canonical names quoted in backticks: tram
// identifiers, repo paths and root-level file names, fault-injection specs,
// and transport kinds.
func (c *checker) checkTokens(doc, text, tramSrc, configSrc string, faultPoints map[string]bool) {
	for _, m := range tickRe.FindAllStringSubmatch(text, -1) {
		tok := m[1]
		if opt := optRe.FindStringSubmatch(tok); opt != nil {
			c.checkOptionPath(doc, tok, opt[1])
		}
		switch {
		case tramRe.MatchString(tok):
			name := tramRe.FindStringSubmatch(tok)[1]
			c.checked++
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(tramSrc) {
				c.failf("%s: `%s` names %q, which no longer exists in the tram package", doc, tok, name)
			}
		case faultRe.MatchString(tok):
			point := faultRe.FindStringSubmatch(tok)[1]
			c.checked++
			if !faultPoints[point] {
				c.failf("%s: `%s` names fault point %q, not declared in internal/faultinject", doc, tok, point)
			}
		case kindRe.MatchString(tok):
			lit := kindRe.FindStringSubmatch(tok)[1]
			c.checked++
			if !strings.Contains(configSrc, lit) {
				c.failf("%s: `%s` names transport kind %s, unknown to tram/config.go", doc, tok, lit)
			}
		case pathRe.MatchString(tok), rootRe.MatchString(tok):
			rel := strings.TrimSuffix(strings.TrimSuffix(tok, "/"), "/...")
			rel = strings.TrimSuffix(rel, "/*")
			if base := filepath.Base(rel); strings.ContainsAny(base, "*") {
				rel = filepath.Dir(rel)
			}
			c.checked++
			if !c.exists(rel) {
				c.failf("%s: `%s` references %s, which does not exist", doc, tok, rel)
			}
		}
	}
}

// membersOf returns the field and method names of the struct spec names
// ("directory.Type"), parsed from the non-test sources of its directory.
func (c *checker) membersOf(spec string) map[string]bool {
	if m, ok := c.members[spec]; ok {
		return m
	}
	dot := strings.LastIndexByte(spec, '.')
	dir, typ := spec[:dot], spec[dot+1:]
	var found map[string]bool
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(c.root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil && !os.IsNotExist(err) {
		c.failf("%s: %v", dir, err)
	}
	members := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && len(d.Recv.List) == 1 {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok && id.Name == typ {
							members[d.Name.Name] = true
						}
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						ts, ok := sp.(*ast.TypeSpec)
						if !ok || ts.Name.Name != typ {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							found = members
							for _, f := range st.Fields.List {
								for _, name := range f.Names {
									members[name.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	if c.members == nil {
		c.members = map[string]map[string]bool{}
	}
	c.members[spec] = found
	return found
}

// checkOptionPath walks a dotted option path such as Config.Dist.Hosts: each
// segment must be a member of the struct the previous one names.
func (c *checker) checkOptionPath(doc, tok, path string) {
	segs := strings.Split(path, ".")
	for i := 1; i < len(segs); i++ {
		spec, ok := optionStructs[segs[i-1]]
		if !ok {
			return // past the option blocks (a field of a field): not ours to judge
		}
		c.checked++
		if !c.membersOf(spec)[segs[i]] {
			c.failf("%s: `%s` is a stale config field: %s has no field %s", doc, tok, spec, segs[i])
			return
		}
	}
}

// checkKnobTables holds the first column of every knob table (a markdown table
// whose first header cell is "Knob") to the option structs: each backticked
// name must be a field of one of them.
func (c *checker) checkKnobTables(doc, text string) {
	for _, tbl := range knobRe.FindAllStringSubmatch(text, -1) {
		for _, cell := range cellRe.FindAllStringSubmatch(tbl[1], -1) {
			c.checked++
			known := false
			for _, spec := range optionStructs {
				known = known || c.membersOf(spec)[cell[1]]
			}
			if !known {
				c.failf("%s: knob table row `%s` is a stale config field: no option struct declares it", doc, cell[1])
			}
		}
	}
}

// checkCIJobs cross-references the README's CI section against the workflow
// file: every declared job id must be bold-listed, and the spelled-out
// count must match.
func (c *checker) checkCIJobs(readme string) {
	data, err := os.ReadFile(filepath.Join(c.root, ".github/workflows/ci.yml"))
	if err != nil {
		c.failf("ci.yml: %v", err)
		return
	}
	var jobs []string
	inJobs := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "jobs:":
			inJobs = true
		case inJobs && jobRe.MatchString(line):
			jobs = append(jobs, jobRe.FindStringSubmatch(line)[1])
		}
	}
	if len(jobs) == 0 {
		c.failf("ci.yml: no jobs parsed")
		return
	}
	for _, job := range jobs {
		c.checked++
		if !strings.Contains(readme, "**"+job+"**") {
			c.failf("README.md: CI job %q is not listed in the CI section", job)
		}
	}
	c.checked++
	m := countRe.FindStringSubmatch(readme)
	switch {
	case m == nil:
		c.failf("README.md: no \"runs <n> jobs\" sentence found in the CI section")
	case numberWords[m[1]] != len(jobs):
		c.failf("README.md: claims ci.yml runs %s jobs, but it declares %d", m[1], len(jobs))
	}
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	c := run(*root)
	if len(c.problems) > 0 {
		for _, p := range c.problems {
			fmt.Println("FAIL", p)
		}
		fmt.Printf("doccheck: %d problems (%d claims checked)\n", len(c.problems), c.checked)
		os.Exit(1)
	}
	fmt.Printf("doccheck: ok (%d claims checked across %d documents)\n", c.checked, len(docFiles))
}

// run performs every check against the repository at root and returns the
// checker with its accumulated problems.
func run(root string) *checker {
	c := &checker{root: root}

	tramSrc := c.readDir("tram")
	configSrc, err := os.ReadFile(filepath.Join(c.root, "tram/config.go"))
	if err != nil {
		c.failf("tram/config.go: %v", err)
	}
	faultPoints := map[string]bool{}
	faultSrc, err := os.ReadFile(filepath.Join(c.root, "internal/faultinject/faultinject.go"))
	if err != nil {
		c.failf("internal/faultinject: %v", err)
	} else {
		for _, m := range strRe.FindAllStringSubmatch(string(faultSrc), -1) {
			faultPoints[m[1]] = true
		}
	}

	var readme string
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(c.root, doc))
		if err != nil {
			c.failf("%s: %v", doc, err)
			continue
		}
		// Fenced code blocks are illustrative (shell sessions, Go
		// snippets), not claims; only prose is under contract.
		text := fenceRe.ReplaceAllString(string(data), "")
		if doc == "README.md" {
			readme = text
		}
		c.checkLinks(doc, text)
		c.checkTokens(doc, text, tramSrc, string(configSrc), faultPoints)
		c.checkKnobTables(doc, text)
	}
	if readme != "" {
		c.checkCIJobs(readme)
	}
	return c
}
