package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a `// want `+"`...`"+“ comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// expectation is one `// want` comment in a fixture file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadExpectations scans every fixture file in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, i+1, err)
			}
			wants = append(wants, &expectation{file: abs, line: i + 1, pattern: re})
		}
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs the analyzer through Lint
// (so //lint:ignore suppression applies exactly as in production), and
// checks the findings against the want comments both ways: every finding
// must be expected, and every expectation must fire.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages in %s", dir)
	}
	wants := loadExpectations(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	for _, d := range Lint(pkgs, []*Analyzer{a}) {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestSeededRandFixture(t *testing.T) { runFixture(t, SeededRand, "seededrand") }
func TestRatCompareFixture(t *testing.T) { runFixture(t, RatCompare, "ratcompare") }
func TestRatFloatFixture(t *testing.T)   { runFixture(t, RatFloat, "ratfloat") }
func TestMapOrderFixture(t *testing.T)   { runFixture(t, MapOrder, "maporder") }
func TestDroppedErrFixture(t *testing.T) { runFixture(t, DroppedErr, "droppederr") }
func TestPoolPutFixture(t *testing.T)    { runFixture(t, PoolPut, "poolput") }
func TestCtxCancelFixture(t *testing.T)  { runFixture(t, CtxCancel, "ctxcancel") }
func TestWaitPairFixture(t *testing.T)   { runFixture(t, WaitPair, "waitpair") }
func TestAtomicMixFixture(t *testing.T)  { runFixture(t, AtomicMix, "atomicmix") }
func TestMutexCopyFixture(t *testing.T)  { runFixture(t, MutexCopy, "mutexcopy") }
func TestWallTimeFixture(t *testing.T)   { runFixture(t, WallTime, "walltime") }
func TestFloatFlowFixture(t *testing.T)  { runFixture(t, FloatFlow, "floatflow") }
func TestPoolEscapeFixture(t *testing.T) { runFixture(t, PoolEscape, "poolescape") }
func TestDetFlowFixture(t *testing.T)    { runFixture(t, DetFlow, "detflow") }
func TestAllocFlowFixture(t *testing.T)  { runFixture(t, AllocFlow, "allocflow") }
func TestBoxingFixture(t *testing.T)     { runFixture(t, Boxing, "boxing") }
func TestGrowLoopFixture(t *testing.T)   { runFixture(t, GrowLoop, "growloop") }

// TestIgnoreDirectives checks suppression semantics directly: a malformed
// directive is itself a finding and suppresses nothing; a well-formed one
// suppresses only the analyzers it names.
func TestIgnoreDirectives(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "src", "ignores"), true)
	if err != nil {
		t.Fatal(err)
	}
	diags := Lint(pkgs, []*Analyzer{RatCompare})
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// missingReason: 1 "ignore" finding + 1 surviving ratcompare finding;
	// justified: fully suppressed; wrongAnalyzer: 1 surviving ratcompare.
	if byAnalyzer["ignore"] != 1 {
		t.Errorf("ignore findings = %d, want 1 (missing reason)", byAnalyzer["ignore"])
	}
	if byAnalyzer["ratcompare"] != 2 {
		t.Errorf("ratcompare findings = %d, want 2 (malformed + wrong-analyzer directives must not suppress)", byAnalyzer["ratcompare"])
	}
	for _, d := range diags {
		if d.Analyzer == "ignore" && !strings.Contains(d.Message, "no written reason") {
			t.Errorf("ignore finding should demand a reason, got %q", d.Message)
		}
	}
}

// TestDiagnosticString pins the canonical file:line: analyzer: message form.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "ratcompare", Message: "msg"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 7
	if got, want := d.String(), "x.go:7: ratcompare: msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestLoaderResolvesModuleAndStdlib loads a real module package and checks
// both halves of import resolution plus deterministic file order.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module != "repro" {
		t.Fatalf("module = %q, want repro", loader.Module)
	}
	pkgs, err := loader.LoadDir(filepath.Join("..", "report"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("units = %d, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "repro/internal/report" {
		t.Fatalf("path = %q", p.Path)
	}
	if p.Types == nil || p.Types.Scope().Lookup("Generate") == nil {
		t.Fatal("type-checked package missing Generate")
	}
	for i := 1; i < len(p.Files); i++ {
		a := p.Fset.Position(p.Files[i-1].Pos()).Filename
		b := p.Fset.Position(p.Files[i].Pos()).Filename
		if a >= b {
			t.Fatalf("files out of order: %s >= %s", a, b)
		}
	}
}

// TestLoaderBuildConstraints loads a package with one file per
// architecture and one excluded by //go:build ignore: only the files the
// go command would build on this GOARCH are read, so it type-checks.
func TestLoaderBuildConstraints(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "src", "buildtags"), false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs[0].Files {
		got = append(got, filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	want := []string{"arch_other.go", "tags.go"}
	if runtime.GOARCH == "amd64" {
		want[0] = "arch_amd64.go"
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}

// TestLoadTreeParallelMatchesSerial pins the loader equivalence contract:
// the parallel tree load must produce the same units, in the same order,
// with byte-identical lint output, as the serial one.
func TestLoadTreeParallelMatchesSerial(t *testing.T) {
	render := func(pkgs []*Package) string {
		var b strings.Builder
		for _, p := range pkgs {
			fmt.Fprintf(&b, "%s %d\n", p.Path, len(p.Files))
		}
		for _, d := range Lint(pkgs, All()) {
			fmt.Fprintln(&b, d)
		}
		return b.String()
	}
	root := ".." // repro/internal: several interdependent packages

	serial, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	spkgs, err := serial.LoadTree(root, true)
	if err != nil {
		t.Fatal(err)
	}

	parallel, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	ppkgs, err := parallel.LoadTreeParallel(root, true, 4)
	if err != nil {
		t.Fatal(err)
	}

	got, want := render(ppkgs), render(spkgs)
	if got != want {
		t.Fatalf("parallel load differs from serial:\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if len(ppkgs) == 0 {
		t.Fatal("no packages loaded")
	}
}

// TestAnalyzerNamesUnique guards the suppression namespace.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 17 {
		t.Fatalf("analyzer count = %d, want 17", len(seen))
	}
}

// TestLintSortsDeterministically shuffles nothing but verifies ordering of
// the combined output across a multi-file fixture run twice.
func TestLintSortsDeterministically(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "src", "maporder"), true)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var b strings.Builder
		for _, d := range Lint(pkgs, All()) {
			fmt.Fprintln(&b, d)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("expected findings in the maporder fixture")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("lint output not deterministic:\n%s\nvs\n%s", got, first)
		}
	}
	// Positional order: findings must come out by ascending line number.
	var prev int
	for _, d := range Lint(pkgs, All()) {
		if d.Pos.Line < prev {
			t.Fatalf("output not sorted by line: %d after %d", d.Pos.Line, prev)
		}
		prev = d.Pos.Line
	}
}
