// Command ttdclint runs the repository's domain linter (internal/lint)
// over the module: it mechanically enforces the reproducibility,
// exact-arithmetic, and concurrency invariants the package documentation
// promises. See the internal/lint package documentation for the analyzer
// suite and the //lint:ignore suppression syntax.
//
// Usage:
//
//	ttdclint [-json] [-sarif file] [-baseline file] [-write-baseline]
//	         [-enable list] [-disable list] [-tests=false]
//	         [-hotpaths] [-write-alloc-gates] [packages...]
//
// Each argument is a directory or a `dir/...` tree pattern; the default is
// `./...`. Standard-library imports are read from the export data that
// `go list -export` builds, so ttdclint runs the go command of its GOROOT;
// where that fails, the load fails (exit 2).
//
// A baseline file (-baseline) is the gated-then-ratcheted adoption
// workflow: findings recorded in it are reported as counts, not failures,
// while a baseline entry that no longer matches any finding is *stale* and
// fails the run — fixed debt must leave the ledger. -write-baseline
// regenerates the file from the current findings.
//
// -hotpaths skips linting and emits the //ttdc:hotpath inventory — every
// annotated function with its symbol, location, exportedness, and written
// reason — as JSON. -write-alloc-gates regenerates the per-package
// alloc_gate_test.go files from that inventory (see gates.go); the checked-
// in copies are drift-checked by this command's own tests.
//
// The exit status is 0 when the tree is clean (after baseline and
// //lint:ignore suppression), 1 when there are findings or stale baseline
// entries, and 2 when packages fail to load or type-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the wire form of one finding inside the -json report.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output object.
type jsonReport struct {
	Findings      []jsonDiagnostic `json:"findings"`
	Suppressed    int              `json:"suppressed"`
	Baselined     int              `json:"baselined"`
	PerAnalyzer   map[string]int   `json:"perAnalyzer"`
	StaleBaseline []baselineEntry  `json:"staleBaseline,omitempty"`
}

// baselineEntry identifies one accepted finding. Matching ignores Line so
// unrelated edits that shift code do not invalidate the baseline; Line is
// recorded for human readers.
type baselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Line     int    `json:"line,omitempty"`
}

func (e baselineEntry) key() string {
	return e.File + "\x00" + e.Analyzer + "\x00" + e.Message
}

// baselineFile is the on-disk baseline format.
type baselineFile struct {
	Findings []baselineEntry `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ttdclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a JSON report object instead of text")
	tests := fs.Bool("tests", true, "also lint _test.go files")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	baselinePath := fs.String("baseline", "", "baseline file of accepted findings; stale entries fail the run")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from the current findings and exit")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	hotpaths := fs.Bool("hotpaths", false, "emit the //ttdc:hotpath inventory as JSON and exit")
	writeGates := fs.Bool("write-alloc-gates", false, "regenerate the per-package alloc_gate_test.go files from the //ttdc:hotpath inventory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "ttdclint:", err)
		return 2
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(stderr, "ttdclint: -write-baseline requires -baseline")
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, "ttdclint:", err)
		return 2
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		var units []*lint.Package
		var err error
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(rest)
			if rest == "" {
				root = "."
			}
			units, err = loader.LoadTree(root, *tests)
		} else {
			units, err = loader.LoadDir(pat, *tests)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
		pkgs = append(pkgs, units...)
	}

	if *hotpaths || *writeGates {
		entries := lint.BuildProgram(pkgs).Hotpaths()
		if *hotpaths {
			for i := range entries {
				entries[i].File = relPath(loader.Root, entries[i].File)
			}
			if entries == nil {
				entries = []lint.HotpathEntry{}
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Hotpaths []lint.HotpathEntry `json:"hotpaths"`
			}{entries}); err != nil {
				fmt.Fprintln(stderr, "ttdclint:", err)
				return 2
			}
			return 0
		}
		files, err := allocGateFiles(entries, pkgs)
		if err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
		var paths []string
		for p := range files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if err := os.WriteFile(p, files[p], 0o644); err != nil {
				fmt.Fprintln(stderr, "ttdclint:", err)
				return 2
			}
			fmt.Fprintf(stderr, "ttdclint: wrote %s\n", relPath(loader.Root, p))
		}
		return 0
	}

	res := lint.LintAll(pkgs, analyzers)
	entries := make([]baselineEntry, len(res.Findings))
	for i, d := range res.Findings {
		entries[i] = baselineEntry{
			File:     relPath(loader.Root, d.Pos.Filename),
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Line:     d.Pos.Line,
		}
	}

	if *writeBaseline {
		if err := writeBaselineFile(*baselinePath, entries); err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "ttdclint: wrote %d finding(s) to %s\n", len(entries), *baselinePath)
		return 0
	}

	// Apply the baseline: each entry absorbs one matching finding; entries
	// left over are stale (the debt was paid — remove it from the ledger).
	baselined := 0
	var stale []baselineEntry
	kept := entries
	keptDiags := res.Findings
	if *baselinePath != "" {
		bl, err := readBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
		budget := map[string]int{}
		for _, e := range bl.Findings {
			budget[e.key()]++
		}
		kept = nil
		keptDiags = nil
		for i, e := range entries {
			if budget[e.key()] > 0 {
				budget[e.key()]--
				baselined++
			} else {
				kept = append(kept, e)
				keptDiags = append(keptDiags, res.Findings[i])
			}
		}
		for _, e := range bl.Findings {
			if budget[e.key()] > 0 {
				budget[e.key()]--
				stale = append(stale, e)
			}
		}
	}

	if *sarifPath != "" {
		var w io.Writer = stdout
		if *sarifPath != "-" {
			f, err := os.Create(*sarifPath)
			if err != nil {
				fmt.Fprintln(stderr, "ttdclint:", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := writeSARIF(w, analyzers, kept); err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
	}

	if *jsonOut {
		report := jsonReport{
			Findings:      make([]jsonDiagnostic, 0, len(kept)),
			Suppressed:    res.Suppressed,
			Baselined:     baselined,
			PerAnalyzer:   map[string]int{},
			StaleBaseline: stale,
		}
		for i, e := range kept {
			report.Findings = append(report.Findings, jsonDiagnostic{
				File:     e.File,
				Line:     e.Line,
				Col:      keptDiags[i].Pos.Column,
				Analyzer: e.Analyzer,
				Message:  e.Message,
			})
			report.PerAnalyzer[e.Analyzer]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "ttdclint:", err)
			return 2
		}
	} else if *sarifPath != "-" {
		for _, e := range kept {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", e.File, e.Line, e.Analyzer, e.Message)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "ttdclint: stale baseline entry (already fixed? remove it): %s: %s: %s\n", e.File, e.Analyzer, e.Message)
	}
	if len(kept) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves -enable/-disable against the full suite,
// preserving the suite's reporting order.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	all := lint.All()
	known := map[string]bool{}
	var names []string
	for _, a := range all {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	parse := func(list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if !known[n] {
				return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(names, ", "))
			}
			set[n] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if on != nil && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// writeBaselineFile persists entries (already in lint's sorted order).
func writeBaselineFile(path string, entries []baselineEntry) error {
	if entries == nil {
		entries = []baselineEntry{}
	}
	data, err := json.MarshalIndent(baselineFile{Findings: entries}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBaselineFile loads and validates a baseline.
func readBaselineFile(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	for _, e := range bl.Findings {
		if e.File == "" || e.Analyzer == "" || e.Message == "" {
			return nil, fmt.Errorf("baseline %s: entry missing file/analyzer/message: %+v", path, e)
		}
	}
	return &bl, nil
}

// --- SARIF 2.1.0 (minimal subset) ---

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF emits the post-baseline findings as a SARIF 2.1.0 log, with
// one rule per selected analyzer plus the "ignore" and "hotpath"
// pseudo-analyzers that report malformed directives.
func writeSARIF(w io.Writer, analyzers []*lint.Analyzer, entries []baselineEntry) error {
	rules := make([]sarifRule, 0, len(analyzers)+2)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               "ignore",
		ShortDescription: sarifText{Text: "//lint:ignore directives must name an analyzer and carry a written reason"},
	})
	rules = append(rules, sarifRule{
		ID:               "hotpath",
		ShortDescription: sarifText{Text: "//ttdc:hotpath directives must carry a written reason and sit in a function declaration's doc comment"},
	})
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(entries))
	for _, e := range entries {
		results = append(results, sarifResult{
			RuleID:  e.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: e.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(e.File)},
					Region:           sarifRegion{StartLine: e.Line},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ttdclint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders abs relative to the module root with forward slashes,
// so reports, SARIF logs, and the baseline ledger are byte-identical
// across checkouts and working directories. Paths outside the module keep
// their absolute form.
func relPath(root, abs string) string {
	if root == "" {
		return abs
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return abs
	}
	return filepath.ToSlash(rel)
}
