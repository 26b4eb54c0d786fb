package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Allocation-site analysis behind the //ttdc:hotpath contract (hotpath.go).
// Each function body is scanned once for the direct shapes that reach the
// Go allocator — make, new, composite literals with heap-backed underlying
// types, append growth, string↔[]byte conversions, closure captures, and
// calls into packages outside the module — and the result feeds two
// consumers: the summary fixpoint (summary.go), which propagates an
// Allocates bit with pass-frozen witness chains, and the allocflow /
// growloop analyzers, which report the sites inside annotated functions.
//
// Five shapes are exempt by construction. Each is a deliberate
// approximation, documented with its failure mode in DESIGN.md §15:
//
//  1. panic arguments — a panicking path is not a warm path;
//  2. return statements that also return a non-nil error — the error path
//     is the cold path, and building the error is what error paths do;
//  3. make/append/composite sites inside an `if` whose condition checks
//     cap(...) — the amortized grow-once idiom ("grow scratch only when
//     too small") allocates O(log n) times, not per call;
//  4. function literals passed directly as call arguments or invoked in
//     place — matching the compiler's own escape analysis, which stack-
//     allocates a closure whose callee does not leak it (go statements
//     and defers are excluded: those closures always escape);
//  5. append to a base the same function provably resets by self-reslice
//     (`x = x[:0]`) or grows behind a cap guard — the pre-sized scratch
//     idiom the simulator kernels are built on.
//
// Dynamic calls (function values, interface dispatch) are optimistically
// assumed allocation-free — the same trade the rest of the interprocedural
// layer makes, in the opposite direction of taint: a missed allocation
// here is caught dynamically by the generated AllocsPerRun gates.

// allocKind classifies a direct allocation site.
type allocKind int

const (
	allocMake allocKind = iota
	allocNew
	allocLit
	allocAppend
	allocConv
	allocClosure
	allocExtCall
)

// allocSite is one direct warm-path allocation in a function body.
type allocSite struct {
	pos  token.Pos
	kind allocKind
	src  string // witness phrase for summary chains: "make", "fmt.Sprintf"
	what string // diagnostic phrase: "make allocates", ...
}

// posRange is a half-open source interval [lo, hi).
type posRange struct{ lo, hi token.Pos }

func within(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// hotFacts caches one function's allocation analysis: pure syntax plus
// types, stable across fixpoint passes.
type hotFacts struct {
	sites    []allocSite
	cold     []posRange // panic arguments and error-returning returns
	capGuard []posRange // bodies of `if ... cap(...) ...` guards

	loopsBuilt bool
	flow       *FlowGraph
	loops      map[*FlowNode]bool // nodes on a CFG cycle
}

// allocFacts returns fi's cached allocation facts, computing them on first
// use. BuildProgram populates Funcs before the fixpoint runs, so external-
// callee checks see the complete module.
func (fi *FuncInfo) allocFacts(p *Program) *hotFacts {
	if fi.hot == nil {
		fi.hot = computeAllocFacts(p, fi)
	}
	return fi.hot
}

// firstSite returns the earliest direct allocation site, if any — the
// frozen witness the summary records.
func (h *hotFacts) firstSite() (allocSite, bool) {
	if len(h.sites) == 0 {
		return allocSite{}, false
	}
	return h.sites[0], true
}

// inCold reports whether pos sits on a cold (panic / error-return) path.
func (h *hotFacts) inCold(pos token.Pos) bool { return within(h.cold, pos) }

// allocFreePkgs are external packages whose calls never allocate on
// success paths the module exercises: pure arithmetic, and the sync
// primitives (Pool.Get hands back recycled memory — the "optimistic for
// pooled getters" trade of DESIGN.md §15; Lock/Unlock/atomic ops are
// allocation-free by design).
var allocFreePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
}

// allocFreeFuncs allowlists individual external functions from packages
// that otherwise allocate: list repositioning moves existing elements,
// sort.Search is a closed-form bisection over caller state, and varint
// decoding is pure scalar arithmetic over the caller's buffer.
var allocFreeFuncs = map[string]bool{
	"(*container/list.List).MoveToFront": true,
	"sort.Search":                        true,
	"encoding/binary.Uvarint":            true,
}

// computeAllocFacts performs the one-pass body scan described in the file
// comment.
func computeAllocFacts(p *Program, fi *FuncInfo) *hotFacts {
	h := &hotFacts{}
	pkg := fi.Pkg
	info := pkg.Info
	body := fi.Decl.Body

	// Exemptions 1–3: cold ranges and cap guards.
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pkg, s, "panic") {
				h.cold = append(h.cold, posRange{s.Pos(), s.End()})
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if tv, ok := info.Types[r]; ok && tv.Type != nil &&
					isErrorType(tv.Type) && !tv.IsNil() {
					h.cold = append(h.cold, posRange{s.Pos(), s.End()})
					break
				}
			}
		case *ast.IfStmt:
			if s.Cond != nil && mentionsCap(pkg, s.Cond) {
				h.capGuard = append(h.capGuard, posRange{s.Body.Pos(), s.Body.End()})
			}
		}
		return true
	})

	// Exemption 5: pre-sized append bases — self-resliced, or re-made
	// behind a cap guard, anywhere in the same body.
	presized := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			lstr := types.ExprString(lhs)
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.SliceExpr:
				if types.ExprString(rhs.X) == lstr {
					presized[lstr] = true
				}
			case *ast.CallExpr:
				if isBuiltinCall(pkg, rhs, "make") && within(h.capGuard, rhs.Pos()) {
					presized[lstr] = true
				}
			}
		}
		return true
	})

	// Exemption 4: callback literals. Literals launched by go/defer always
	// escape, so they stay flagged.
	escaping := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			escaping[s.Call] = true
		case *ast.DeferStmt:
			escaping[s.Call] = true
		}
		return true
	})
	exemptLit := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || escaping[call] {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			exemptLit[lit] = true // invoked in place
		}
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				exemptLit[lit] = true // callback position
			}
		}
		return true
	})

	addSite := func(pos token.Pos, kind allocKind, src, what string) {
		if within(h.cold, pos) {
			return
		}
		if within(h.capGuard, pos) &&
			(kind == allocMake || kind == allocAppend || kind == allocLit) {
			return
		}
		h.sites = append(h.sites, allocSite{pos: pos, kind: kind, src: src, what: what})
	}
	addrLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					addrLit[lit] = true
					addSite(e.Pos(), allocLit, "composite literal", "composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			if addrLit[e] {
				return true
			}
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					addSite(e.Pos(), allocLit, "composite literal", "composite literal allocates")
				}
			}
		case *ast.FuncLit:
			if !exemptLit[e] {
				addSite(e.Pos(), allocClosure, "closure capture", "closure capture allocates")
			}
		case *ast.CallExpr:
			callSite(p, fi, e, presized, addSite)
		}
		return true
	})
	sort.Slice(h.sites, func(i, j int) bool { return h.sites[i].pos < h.sites[j].pos })
	return h
}

// callSite classifies one call expression: allocating builtins, heap-bound
// string conversions, and calls that leave the module.
func callSite(p *Program, fi *FuncInfo, call *ast.CallExpr,
	presized map[string]bool, addSite func(token.Pos, allocKind, string, string)) {
	pkg := fi.Pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				addSite(call.Pos(), allocMake, "make", "make allocates")
			case "new":
				addSite(call.Pos(), allocNew, "new", "new allocates")
			case "append":
				if len(call.Args) > 0 && !presized[types.ExprString(call.Args[0])] {
					addSite(call.Pos(), allocAppend, "append", "append may grow its slice")
				}
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if stringBytesConv(pkg, tv.Type, call) {
			addSite(call.Pos(), allocConv, "string conversion", "string conversion allocates")
		}
		return
	}
	fn, _, _, _ := resolveCallee(pkg, call)
	if fn == nil {
		return // dynamic dispatch: optimistic (DESIGN.md §15)
	}
	sym := symbolOf(fn)
	if p.Funcs[sym] != nil {
		return // module-internal: the summary fixpoint carries the fact
	}
	if p.asmLeaves[sym] {
		return // leaf assembly: it calls nothing, so nothing allocates
	}
	if fn.Pkg() == nil {
		return // universe methods (error.Error)
	}
	if allocFreePkgs[fn.Pkg().Path()] || allocFreeFuncs[sym] {
		return
	}
	short := shortSym(sym)
	addSite(call.Pos(), allocExtCall, short, "call to "+short+" allocates")
}

// asmLeaves returns the symbols of pkg's body-less functions whose
// assembly is a leaf: their `TEXT ·name` block, in one of the package's
// own .s files for this GOOS and GOARCH, makes no call (asmCalls). A leaf
// cannot reach the allocator, so callSite treats a call to one as
// allocation-free. A body-less function without such a block is judged
// like any call that leaves the module: it allocates.
func asmLeaves(pkg *Package) map[string]bool {
	syms := map[string]string{} // Go name → symbol
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body != nil || fd.Recv != nil {
				continue
			}
			if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
				syms[fd.Name.Name] = symbolOf(obj)
			}
		}
	}
	if len(syms) == 0 {
		return nil
	}
	names, err := buildFiles(pkg.Dir, ".s", false)
	if err != nil {
		return nil // unread assembly proves nothing: the calls stay findings
	}
	leaves := map[string]bool{}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(pkg.Dir, name))
		if err != nil {
			continue
		}
		for text, calls := range asmCalls(string(src)) {
			if sym, ok := syms[text]; ok && !calls {
				leaves[sym] = true
			}
		}
	}
	return leaves
}

// asmCalls scans Go assembly source and reports, for each `TEXT ·name`
// block (the package's own symbols), whether it calls out: a CALL or BL,
// or a JMP or B to a symbol's (SB) address, which is a tail call. A block
// runs from its TEXT line to the next one. Macros are not expanded, so a
// call inside a #define counts against every block of the file.
func asmCalls(src string) map[string]bool {
	blocks := map[string]bool{}
	cur, inMacro, macroCalls := "", false, false
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#define") {
			inMacro = true
		}
		for _, ins := range strings.Split(trimmed, ";") {
			f := strings.Fields(ins)
			if len(f) > 0 && strings.HasSuffix(f[0], ":") {
				f = f[1:] // label
			}
			if len(f) == 0 {
				continue
			}
			if f[0] == "TEXT" && !inMacro {
				cur = ""
				if len(f) > 1 {
					if name, ok := strings.CutPrefix(f[1], "·"); ok {
						if i := strings.IndexAny(name, "(<"); i > 0 {
							cur = name[:i]
							blocks[cur] = false
						}
					}
				}
				continue
			}
			calls := false
			for i, tok := range f {
				switch tok {
				case "CALL", "BL":
					calls = true
				case "JMP", "B":
					calls = calls || (i+1 < len(f) && strings.Contains(f[i+1], "(SB)"))
				}
			}
			switch {
			case !calls:
			case inMacro:
				macroCalls = true
			case cur != "":
				blocks[cur] = true
			}
		}
		inMacro = inMacro && strings.HasSuffix(trimmed, "\\")
	}
	if macroCalls {
		for name := range blocks {
			blocks[name] = true
		}
	}
	return blocks
}

// inLoop reports whether the innermost CFG-backed statement containing pos
// sits on a cycle of fi's flow graph — the allocflow/growloop ownership
// split: loop appends belong to growloop, everything else to allocflow.
// Statements inside nested function literals have no node in the enclosing
// graph and report false (allocflow keeps them).
func (h *hotFacts) inLoop(fi *FuncInfo, pos token.Pos) bool {
	if !h.loopsBuilt {
		h.loopsBuilt = true
		h.flow = BuildFlow(fi.Decl.Body)
		h.loops = map[*FlowNode]bool{}
		for _, n := range h.flow.Nodes {
			if h.flow.Reachable(n)[n] {
				h.loops[n] = true
			}
		}
	}
	var best ast.Stmt
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if s.Pos() <= pos && pos < s.End() && h.flow.NodeFor(s) != nil {
			best = s // pre-order: later matches are nested deeper
		}
		return true
	})
	return best != nil && h.loops[h.flow.NodeFor(best)]
}

// isBuiltinCall reports whether call invokes the named predeclared builtin.
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// mentionsCap reports whether expr contains a call to the cap builtin.
func mentionsCap(pkg *Package, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(pkg, call, "cap") {
			found = true
		}
		return true
	})
	return found
}

// errorIface is the predeclared error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

// stringBytesConv reports whether a conversion to dst crosses the
// string ↔ []byte/[]rune boundary, which copies the payload.
func stringBytesConv(pkg *Package, dst types.Type, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	src := tv.Type
	return (isStringType(dst) && isByteRuneSlice(src)) ||
		(isByteRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allocChain renders the witness path from sym to the ultimate allocation
// site, following the frozen AllocVia links — the allocflow analogue of
// taintChain.
func (p *Program) allocChain(sym string) string {
	var parts []string
	seen := map[string]bool{}
	for cur := sym; cur != "" && !seen[cur]; {
		seen[cur] = true
		parts = append(parts, shortSym(cur))
		fi := p.Funcs[cur]
		if fi == nil {
			break
		}
		if fi.Summary.AllocVia == "" {
			if src := fi.Summary.AllocSrc; src != "" {
				parts = append(parts, src)
			}
			break
		}
		cur = fi.Summary.AllocVia
	}
	return strings.Join(parts, " -> ")
}
