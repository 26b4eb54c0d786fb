package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// cgPath is the import path of the call-graph fixture package.
const cgPath = "repro/internal/lint/testdata/src/callgraph"

// loadCallgraph builds the interprocedural program over the callgraph
// fixture tree.
func loadCallgraph(t *testing.T) *Program {
	t.Helper()
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "src", "callgraph"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages in callgraph fixture")
	}
	return BuildProgram(pkgs)
}

// edgesTo counts fi's edges of the given kind to callee.
func edgesTo(fi *FuncInfo, callee string, kind EdgeKind) int {
	n := 0
	for _, e := range fi.Edges {
		if e.Callee == callee && e.Kind == kind {
			n++
		}
	}
	return n
}

// mustFunc fetches a function from the program or fails the test.
func mustFunc(t *testing.T, prog *Program, sym string) *FuncInfo {
	t.Helper()
	fi := prog.Func(sym)
	if fi == nil {
		var have []string
		for s := range prog.Funcs {
			have = append(have, s)
		}
		sort.Strings(have)
		t.Fatalf("function %s not in program; have:\n%s", sym, strings.Join(have, "\n"))
	}
	return fi
}

// TestCallGraphSelfRecursion: fact carries a static call edge back to
// itself, and the recursive cycle does not invent taint or break the
// fixpoint.
func TestCallGraphSelfRecursion(t *testing.T) {
	prog := loadCallgraph(t)
	fact := mustFunc(t, prog, cgPath+".fact")
	if got := edgesTo(fact, cgPath+".fact", EdgeCall); got != 1 {
		t.Fatalf("fact self-call edges = %d, want 1", got)
	}
	if fact.Summary.Taint != [numTaints]bool{} {
		t.Fatalf("fact acquired taint through self-recursion: %+v", fact.Summary)
	}
}

// TestCallGraphMutualRecursionTaint: clock taint enters the isEven/isOdd
// cycle through stamp and the fixpoint carries it to both members, with a
// witness chain that bottoms out at time.Now.
func TestCallGraphMutualRecursionTaint(t *testing.T) {
	prog := loadCallgraph(t)
	even := mustFunc(t, prog, cgPath+".isEven")
	odd := mustFunc(t, prog, cgPath+".isOdd")
	stamp := mustFunc(t, prog, cgPath+".stamp")

	if edgesTo(even, cgPath+".isOdd", EdgeCall) != 1 || edgesTo(odd, cgPath+".isEven", EdgeCall) != 1 {
		t.Fatal("mutual recursion edges missing")
	}
	for _, fi := range []*FuncInfo{even, odd, stamp} {
		if !fi.Summary.Taint[TaintClock] {
			t.Errorf("%s not clock-tainted at fixpoint", fi.Sym)
		}
		if got := fi.Summary.Src[TaintClock]; got != "time.Now" {
			t.Errorf("%s taint source = %q, want time.Now", fi.Sym, got)
		}
	}
	// The chain from isEven must route through the cycle to the source —
	// and terminate, despite the cycle.
	chain := prog.taintChain(cgPath+".isEven", TaintClock)
	if !strings.Contains(chain, "stamp") || !strings.HasSuffix(chain, "time.Now") {
		t.Fatalf("witness chain %q does not reach time.Now through stamp", chain)
	}
}

// TestCallGraphMethodValue: `f := t.Get` is a reference, not a call —
// the graph records an EdgeRef — while `t.Get()` is a static EdgeCall.
func TestCallGraphMethodValue(t *testing.T) {
	prog := loadCallgraph(t)
	getSym := "(*" + cgPath + ".T).Get"
	mv := mustFunc(t, prog, cgPath+".methodValue")
	if got := edgesTo(mv, getSym, EdgeRef); got != 1 {
		t.Fatalf("methodValue EdgeRef to Get = %d, want 1 (edges: %+v)", got, mv.Edges)
	}
	if got := edgesTo(mv, getSym, EdgeCall); got != 0 {
		t.Fatalf("methodValue must not have a call edge to Get, got %d", got)
	}
	cm := mustFunc(t, prog, cgPath+".callMethod")
	if got := edgesTo(cm, getSym, EdgeCall); got != 1 {
		t.Fatalf("callMethod EdgeCall to Get = %d, want 1 (edges: %+v)", got, cm.Edges)
	}
}

// TestCallGraphInterfaceDispatch: a call through an interface cannot be
// resolved statically — it lands in Dynamic, not Edges.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadCallgraph(t)
	dyn := mustFunc(t, prog, cgPath+".dyn")
	if len(dyn.Dynamic) != 1 || !strings.Contains(dyn.Dynamic[0].Desc, "interface dispatch") {
		t.Fatalf("dyn dynamic sites = %+v, want one interface dispatch", dyn.Dynamic)
	}
	for _, e := range dyn.Edges {
		if e.Kind == EdgeCall && strings.Contains(e.Callee, ".M") {
			t.Fatalf("interface dispatch produced a static edge: %+v", e)
		}
	}
}

// TestFixpointFloatRecursion: the optimistic float-provenance fixpoint
// must converge true for a clean recursive accumulator and settle false
// when the cycle forwards an unproven float parameter.
func TestFixpointFloatRecursion(t *testing.T) {
	prog := loadCallgraph(t)
	if fi := mustFunc(t, prog, cgPath+".cleanRec"); !fi.Summary.FloatDerived {
		t.Error("cleanRec: FloatDerived = false, want true (clean recursion must converge)")
	}
	if fi := mustFunc(t, prog, cgPath+".dirtyRec"); fi.Summary.FloatDerived {
		t.Error("dirtyRec: FloatDerived = true, want false (forwarded float parameter)")
	}
}

// renderSummaries serialises every function summary in symbol order.
func renderSummaries(prog *Program) string {
	syms := make([]string, 0, len(prog.Funcs))
	for s := range prog.Funcs {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	var b strings.Builder
	for _, s := range syms {
		fmt.Fprintf(&b, "%s %+v\n", s, prog.Funcs[s].Summary)
	}
	return b.String()
}

// TestBuildProgramSerialParallelIdentical pins the determinism contract
// for the interprocedural layer: summaries computed over two fresh loads,
// one through the deprecated LoadTreeParallel alias the benchmark module
// calls, are byte-identical.
func TestBuildProgramSerialParallelIdentical(t *testing.T) {
	root := ".."

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

	got, want := renderSummaries(BuildProgram(ppkgs)), renderSummaries(BuildProgram(spkgs))
	if got == "" {
		t.Fatal("no summaries rendered")
	}
	if got != want {
		t.Fatalf("summaries differ between LoadTreeParallel and LoadTree:\n--- LoadTreeParallel ---\n%s--- LoadTree ---\n%s", got, want)
	}
}
