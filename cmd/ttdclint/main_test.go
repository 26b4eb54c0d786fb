package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"testdata/good"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean tree produced output: %q", out.String())
	}
}

// badAnalyzers is one expected message fragment per analyzer that must
// fire on the dirty fixture tree — each flow-aware analyzer has at least
// one bad-fixture finding here.
var badAnalyzers = map[string]string{
	"ratcompare": "*big.Rat compared with ==",
	"maporder":   "fmt.Println call inside range over map",
	"ratfloat":   "lossy Rat.Float64",
	"poolput":    "can reach a return with no Put",
	"ctxcancel":  "discarded",
	"waitpair":   "no WaitGroup or channel join",
	"atomicmix":  "accessed atomically",
	"mutexcopy":  "copies guarded",
	"walltime":   "reads the wall clock",
	"floatflow":  "does not trace to an approved finalizer",
	"poolescape": "outlives the call",
	"detflow":    "deterministic outputs must be path-clean",
	"allocflow":  "make allocates",
	"boxing":     "boxes",
	"growloop":   "not provably pre-sized",
}

func TestRunFindings(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}
	got := out.String()
	for analyzer, fragment := range badAnalyzers {
		if !strings.Contains(got, analyzer+": ") || !strings.Contains(got, fragment) {
			t.Errorf("output missing %s finding (%q):\n%s", analyzer, fragment, got)
		}
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != len(badAnalyzers) {
		t.Fatalf("findings = %d, want %d:\n%s", len(lines), len(badAnalyzers), got)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "cmd/ttdclint/testdata/bad/") {
			t.Errorf("diagnostic not module-relative: %q", line)
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(report.Findings) != len(badAnalyzers) {
		t.Fatalf("json findings = %d, want %d", len(report.Findings), len(badAnalyzers))
	}
	if report.Suppressed != 0 || report.Baselined != 0 || len(report.StaleBaseline) != 0 {
		t.Errorf("unexpected counts: %+v", report)
	}
	for _, d := range report.Findings {
		if !strings.HasPrefix(d.File, "cmd/ttdclint/testdata/bad/") || d.Line <= 0 || d.Col <= 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic %+v", d)
		}
	}
	for analyzer := range badAnalyzers {
		if report.PerAnalyzer[analyzer] != 1 {
			t.Errorf("perAnalyzer[%s] = %d, want 1", analyzer, report.PerAnalyzer[analyzer])
		}
	}
}

// TestRunJSONSuppressedCount pins the suppression accounting: the good
// tree's injected-clock //lint:ignore shows up in the report, not as a
// finding.
func TestRunJSONSuppressedCount(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "testdata/good"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr=%q", code, errb.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) != 0 {
		t.Fatalf("clean tree has findings: %+v", report.Findings)
	}
	if report.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1 (the walltime injection point)", report.Suppressed)
	}
}

func TestRunBaselineWorkflow(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")

	// Step 1: record the current debt.
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", baseline, "-write-baseline", "testdata/bad"}, &out, &errb); code != 0 {
		t.Fatalf("write-baseline exit = %d; stderr=%q", code, errb.String())
	}

	// Step 2: with the baseline applied the dirty tree is green, and the
	// report accounts for every absorbed finding.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-json", "-baseline", baseline, "testdata/bad"}, &out, &errb); code != 0 {
		t.Fatalf("baselined run exit = %d; stderr=%q stdout=%q", code, errb.String(), out.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Baselined != len(badAnalyzers) || len(report.Findings) != 0 {
		t.Fatalf("baselined = %d findings = %d, want %d and 0", report.Baselined, len(report.Findings), len(badAnalyzers))
	}

	// Step 3: an entry that matches nothing is stale and fails the run.
	var bl baselineFile
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatal(err)
	}
	bl.Findings = append(bl.Findings, baselineEntry{
		File: "cmd/ttdclint/testdata/bad/conc.go", Analyzer: "poolput", Message: "finding that was fixed long ago",
	})
	data, err = json.MarshalIndent(bl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", baseline, "testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("stale baseline exit = %d, want 1; stderr=%q", code, errb.String())
	}
	if !strings.Contains(errb.String(), "stale baseline entry") {
		t.Fatalf("stderr missing stale-entry report: %q", errb.String())
	}
}

func TestRunSARIF(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", "-", "testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}
	var log sarifLog
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "ttdclint" {
		t.Fatalf("driver name = %q", run0.Tool.Driver.Name)
	}
	// Seventeen analyzers plus the "ignore" and "hotpath" pseudo-rules.
	if len(run0.Tool.Driver.Rules) != 19 {
		t.Fatalf("rules = %d, want 19", len(run0.Tool.Driver.Rules))
	}
	if len(run0.Results) != len(badAnalyzers) {
		t.Fatalf("results = %d, want %d", len(run0.Results), len(badAnalyzers))
	}
	for _, r := range run0.Results {
		loc := r.Locations[0].PhysicalLocation
		if !strings.HasPrefix(loc.ArtifactLocation.URI, "cmd/ttdclint/testdata/bad/") || loc.Region.StartLine <= 0 {
			t.Errorf("bad location %+v", loc)
		}
	}
}

// TestRunReportDigests pins the reports byte for byte: the SHA-256 of the
// text, -json and -sarif output over both fixture trees. The digests were
// recorded with the source importer, so they hold the export-data loader
// to the same bytes.
func TestRunReportDigests(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"testdata/bad"}, 1, "bdf0e8cca8088e1e437e1311d9fce7e92dbc75bc4198e87f561e0f4ef89ce508"},
		{[]string{"-json", "testdata/bad"}, 1, "8eef492576edd6766802aa2680ff1295384bb5def9260aa7b4df917cfe0e716b"},
		{[]string{"-sarif", "-", "testdata/bad"}, 1, "4b4d25dc802c202713c63427c5b23c70708c06baf5bfcdcb7641b02f7ae59284"},
		{[]string{"testdata/good"}, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{[]string{"-json", "testdata/good"}, 0, "306288a9327fae4067f536f4699e65e1dbdb1b28cd0a3a55592a62c9dc8d9a1b"},
		{[]string{"-sarif", "-", "testdata/good"}, 0, "a48a2f8175f3295ee4de815b1d8def3eef138702558f97b645e891f4bce45065"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("ttdclint %v: exit = %d, want %d; stderr=%q", tc.args, code, tc.code, errb.String())
			continue
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("ttdclint %v output sha256 = %s, want %s\n%s", tc.args, got, tc.want, out.String())
		}
	}
}

func TestRunEnableDisable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-enable", "ratcompare", "testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "ratcompare") {
		t.Fatalf("-enable ratcompare output:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-disable", "ratcompare,maporder,ratfloat", "testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}
	got := out.String()
	if strings.Contains(got, "ratcompare") || len(strings.Split(strings.TrimSpace(got), "\n")) != 12 {
		t.Fatalf("-disable output:\n%s", got)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-enable", "nosuch", "testdata/bad"}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Fatalf("stderr missing unknown-analyzer error: %q", errb.String())
	}
}

func TestRunMissingDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"testdata/nosuchdir"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if errb.Len() == 0 {
		t.Fatal("expected a load error on stderr")
	}
}

// TestRunLoadFailures pins the loader's failure contract on a module of
// its own: an import with no export data, or a go command that fails, is a
// load error (exit 2) that names the cause, never a fallback.
func TestRunLoadFailures(t *testing.T) {
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, goflags, imp string
		want               []string
	}{
		{"no export data", "", "nosuch/pkg", []string{"no export data for nosuch/pkg", "not in std"}},
		{"go list fails", "-bogus", "fmt", []string{"go list -export", "-bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, src := range map[string]string{
				"go.mod": "module tmpmod\n\ngo 1.22\n",
				"a.go":   "package a\n\nimport _ \"" + tc.imp + "\"\n",
			} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			t.Setenv("GOFLAGS", tc.goflags)
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.Chdir(orig); err != nil {
					t.Fatal(err)
				}
			}()
			var out, errb bytes.Buffer
			if code := run(nil, &out, &errb); code != 2 {
				t.Fatalf("exit = %d, want 2; stdout=%q stderr=%q", code, out.String(), errb.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(errb.String(), w) {
					t.Errorf("stderr %q does not contain %q", errb.String(), w)
				}
			}
		})
	}
}

// TestRunPathsStableAcrossWorkingDirectories pins the reporting contract:
// finding paths are module-relative, so the -json report is byte-identical
// whether ttdclint runs from the module root or from a subdirectory.
func TestRunPathsStableAcrossWorkingDirectories(t *testing.T) {
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(orig); err != nil {
			t.Fatal(err)
		}
	}()

	var fromHere, fromRoot, errb bytes.Buffer
	if code := run([]string{"-json", "testdata/bad"}, &fromHere, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errb.String())
	}

	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-json", filepath.Join("cmd", "ttdclint", "testdata", "bad")}, &fromRoot, &errb); code != 1 {
		t.Fatalf("exit from module root = %d, want 1; stderr=%q", code, errb.String())
	}

	if !bytes.Equal(fromHere.Bytes(), fromRoot.Bytes()) {
		t.Fatalf("report depends on working directory:\n--- from cmd/ttdclint ---\n%s--- from module root ---\n%s",
			fromHere.String(), fromRoot.String())
	}
}

// TestRunHotpathsInventory pins the -hotpaths JSON mode over the dirty
// fixture tree: the three annotated contract-breakers are inventoried with
// module-relative files, exportedness, and their written reasons, and the
// mode reports instead of linting (exit 0 despite the findings).
func TestRunHotpathsInventory(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-hotpaths", "testdata/bad"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr=%q", code, errb.String())
	}
	var report struct {
		Hotpaths []lintHotpathEntry `json:"hotpaths"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("-hotpaths output does not parse: %v\n%s", err, out.String())
	}
	if len(report.Hotpaths) != 3 {
		t.Fatalf("inventory = %d entries, want 3:\n%s", len(report.Hotpaths), out.String())
	}
	want := map[string]string{
		"HotBox":  "claimed box-free but stores an int in an interface",
		"HotGrow": "claimed pre-sized but grows per iteration",
		"HotMake": "claimed allocation-free but calls make",
	}
	for i, e := range report.Hotpaths {
		if e.Name == "" || want[e.Name] != e.Reason {
			t.Errorf("entry %d = %+v, want reason %q", i, e, want[e.Name])
		}
		if e.File != "cmd/ttdclint/testdata/bad/hotpath.go" || e.Line <= 0 || !e.Exported {
			t.Errorf("entry %d location/exportedness wrong: %+v", i, e)
		}
		if i > 0 && report.Hotpaths[i-1].Sym >= e.Sym {
			t.Errorf("inventory not sorted by symbol: %q then %q", report.Hotpaths[i-1].Sym, e.Sym)
		}
	}
}

// lintHotpathEntry mirrors lint.HotpathEntry's wire form for decoding.
type lintHotpathEntry struct {
	Sym      string `json:"sym"`
	Pkg      string `json:"pkg"`
	Name     string `json:"name"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Exported bool   `json:"exported"`
	Reason   string `json:"reason"`
}

// TestRunSelfTree lints this command's own directory via the default
// `./...` pattern (testdata is skipped by the tree walk): ttdclint must be
// clean under its own analyzers.
func TestRunSelfTree(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("ttdclint is not self-clean: exit=%d\n%s%s", code, out.String(), errb.String())
	}
}
