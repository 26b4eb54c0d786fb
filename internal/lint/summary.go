package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Per-function summaries over a boolean lattice, propagated to a fixpoint
// over the call graph. Every component is monotone — the taint, store,
// release, and pooled bits only move false→true across passes, and
// FloatDerived only moves true→false — so iterating until no summary
// changes terminates, and because both the function order (level, then
// symbol) and the per-function edge order (source order) are fixed by the
// sorted loader output, the fixpoint is byte-identical from run to run.

// TaintKind indexes the determinism-taint dimensions of a Summary.
type TaintKind int

const (
	// TaintClock: the function (transitively) reads the wall clock.
	TaintClock TaintKind = iota
	// TaintRand: the function (transitively) draws from an unseeded
	// global random source.
	TaintRand
	// TaintMapOrder: the function (transitively) returns data whose value
	// depends on map iteration order.
	TaintMapOrder
	numTaints
)

// taintNames are the human phrases used in detflow messages.
var taintNames = [numTaints]string{
	"wall-clock time",
	"unseeded randomness",
	"map iteration order",
}

// Summary is the interprocedural abstract of one function.
type Summary struct {
	// Taint[k] reports that kind-k nondeterminism reaches this function's
	// behavior; Via[k] is the callee symbol the taint arrived through (""
	// for a direct source), and Src[k] names the ultimate source
	// ("time.Now", "rand.Intn", ...). Via/Src are frozen at the pass that
	// first sets Taint[k], which keeps witness chains acyclic: a chain
	// recorded at pass p can only point at taint established before p.
	Taint [numTaints]bool
	Via   [numTaints]string
	Src   [numTaints]string
	// FloatDerived: every float the function returns traces to integer
	// counts, constants, an approved finalizer, or an approved package.
	// Vacuously true for functions with no float results.
	FloatDerived bool
	// ReturnsPooled: the function is a pool getter — it returns a value
	// obtained from a sync.Pool (directly or through another getter).
	ReturnsPooled bool
	// StoresParam[i]: parameter i (receiver first, matching
	// FuncInfo.Params) is stored into a location that outlives the call —
	// a field, an element, a package variable, a channel, or a goroutine.
	StoresParam []bool
	// ReleasesParam[i]: parameter i is returned to its pool (Pool.Put or
	// a Release method, directly or transitively).
	ReleasesParam []bool
	// Allocates: the function performs a warm-path heap allocation, itself
	// or through any static callee. Cold shapes — panic arguments, error
	// returns, cap-guarded growth, pre-sized appends, callback literals —
	// are excluded by construction (see alloc.go). AllocVia is the callee
	// symbol the fact arrived through ("" for a direct site) and AllocSrc
	// names the ultimate site ("make", "fmt.Sprintf", ...); both are frozen
	// at the pass that first sets Allocates, exactly like taint witnesses.
	Allocates bool
	AllocVia  string
	AllocSrc  string
}

func (s Summary) equal(o Summary) bool {
	if s.Taint != o.Taint || s.Via != o.Via || s.Src != o.Src ||
		s.FloatDerived != o.FloatDerived || s.ReturnsPooled != o.ReturnsPooled ||
		s.Allocates != o.Allocates || s.AllocVia != o.AllocVia || s.AllocSrc != o.AllocSrc ||
		len(s.StoresParam) != len(o.StoresParam) || len(s.ReleasesParam) != len(o.ReleasesParam) {
		return false
	}
	for i := range s.StoresParam {
		if s.StoresParam[i] != o.StoresParam[i] {
			return false
		}
	}
	for i := range s.ReleasesParam {
		if s.ReleasesParam[i] != o.ReleasesParam[i] {
			return false
		}
	}
	return true
}

// approvedFinalizers are the symbols allowed to originate result-bound
// floats: the shared integer-census finalizers whose single evaluation
// order is what makes legacy and fast simulator paths byte-identical, plus
// the sanctioned big.Rat display converters. (The testdata entries keep
// the floatflow fixtures exercisable end to end.)
var approvedFinalizers = map[string]bool{
	"repro/internal/sim.energyFromCounts":                   true,
	"repro/internal/sim.finishSaturation":                   true,
	"repro/internal/sim.finishConvergecast":                 true,
	"(repro/internal/sim.EnergyModel).slotEnergy":           true,
	"repro.RatFloat":                                        true,
	"repro/internal/combin.RatFloat":                        true,
	"repro/internal/lint/testdata/src/floatflow.fromCounts": true,
	"repro/cmd/ttdclint/testdata/bad.fromCounts":            true,
	"repro/cmd/ttdclint/testdata/good.fromCounts":           true,
}

// approvedFloatPkgs may produce floats without provenance checks:
// internal/stats defines what aggregate statistics mean, the same way it
// is the one package allowed to define randomness.
var approvedFloatPkgs = map[string]bool{
	"repro/internal/stats": true,
}

// journalBound names the result structs whose float fields end up in
// journals, SARIF, or result tables — the sinks floatflow protects.
var journalBound = map[string]bool{
	"repro/internal/engine.Metrics":                      true,
	"repro/internal/sim.SaturationResult":                true,
	"repro/internal/sim.ConvergecastResult":              true,
	"repro/internal/sim.FloodResult":                     true,
	"repro/internal/lint/testdata/src/floatflow.Summary": true,
	"repro/cmd/ttdclint/testdata/bad.Summary":            true,
	"repro/cmd/ttdclint/testdata/good.Summary":           true,
}

// fixpoint computes every summary, iterating the (level, symbol)-sorted
// function order until nothing changes. Each component is monotone, so the
// pass count is bounded by the lattice height; the explicit cap is a
// backstop, not a correctness requirement.
func (p *Program) fixpoint() {
	for _, sym := range p.order {
		fi := p.Funcs[sym]
		fi.Summary = Summary{
			FloatDerived:  true, // optimistic: lets clean recursion converge clean
			StoresParam:   make([]bool, len(fi.Params)),
			ReleasesParam: make([]bool, len(fi.Params)),
		}
	}
	for pass := 0; pass < len(p.order)+2; pass++ {
		changed := false
		for _, sym := range p.order {
			fi := p.Funcs[sym]
			ns := p.summarize(fi)
			if !ns.equal(fi.Summary) {
				changed = true
				fi.Summary = ns
			}
		}
		if !changed {
			return
		}
	}
}

// summarize recomputes one function's summary from its body and the
// current summaries of its callees.
func (p *Program) summarize(fi *FuncInfo) Summary {
	old := fi.Summary
	s := Summary{
		StoresParam:   make([]bool, len(fi.Params)),
		ReleasesParam: make([]bool, len(fi.Params)),
	}
	// Taint and allocation bits are sticky and their witnesses frozen: once
	// set, a later pass never rewrites Via/Src (see the Summary doc comment).
	s.Taint, s.Via, s.Src = old.Taint, old.Via, old.Src
	s.Allocates, s.AllocVia, s.AllocSrc = old.Allocates, old.AllocVia, old.AllocSrc
	p.directTaints(fi, &s)
	if !s.Allocates {
		if site, ok := fi.allocFacts(p).firstSite(); ok {
			s.Allocates, s.AllocVia, s.AllocSrc = true, "", site.src
		}
	}
	for _, e := range fi.Edges {
		if e.Kind != EdgeCall {
			continue
		}
		callee := p.Funcs[e.Callee]
		if callee == nil {
			continue
		}
		for k := TaintKind(0); k < numTaints; k++ {
			if !s.Taint[k] && callee.Summary.Taint[k] {
				s.Taint[k] = true
				s.Via[k] = e.Callee
				s.Src[k] = callee.Summary.Src[k]
			}
		}
		if !s.Allocates && callee != fi && callee.Summary.Allocates &&
			!fi.allocFacts(p).inCold(e.Pos) {
			s.Allocates = true
			s.AllocVia = e.Callee
			s.AllocSrc = callee.Summary.AllocSrc
		}
	}
	s.FloatDerived = p.floatDerived(fi)
	s.ReturnsPooled = p.returnsPooled(fi)
	for i, par := range fi.Params {
		if par == nil || !hasPointerShare(par.Type()) {
			continue
		}
		s.StoresParam[i] = p.paramStored(fi, par)
		s.ReleasesParam[i] = p.paramReleased(fi, par)
	}
	return s
}

// directTaints marks the taint kinds fi sources itself: calls into the
// clock-reading part of package time, the global math/rand generators
// (methods are exempt — a *rand.Rand is caller-seeded), and returns of
// map-iteration values. Function *references* (EdgeRef) do not taint: an
// injected `now func() time.Time` field is the sanctioned clock pattern,
// and the single injection point is where a walltime suppression belongs.
func (p *Program) directTaints(fi *FuncInfo, s *Summary) {
	set := func(k TaintKind, src string) {
		if !s.Taint[k] {
			s.Taint[k] = true
			s.Via[k] = ""
			s.Src[k] = src
		}
	}
	for _, e := range fi.Edges {
		if e.Kind != EdgeCall || e.Fn == nil || e.Fn.Pkg() == nil {
			continue
		}
		if sig, ok := e.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			continue
		}
		switch e.Fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[e.Fn.Name()] {
				set(TaintClock, "time."+e.Fn.Name())
			}
		case "math/rand":
			if globalRandV1[e.Fn.Name()] {
				set(TaintRand, "rand."+e.Fn.Name())
			}
		case "math/rand/v2":
			if !localRandV2[e.Fn.Name()] {
				set(TaintRand, "rand/v2."+e.Fn.Name())
			}
		}
	}
	if mapOrderReturn(fi) {
		set(TaintMapOrder, "range over map")
	}
}

// mapOrderReturn reports whether fi returns a value derived from the
// iteration variables of a range over a map — the shape where iteration
// order directly selects the result ("return the first key found"). Taint
// that escapes a map loop through accumulation into non-deterministically
// ordered containers is the intra-procedural maporder analyzer's job.
func mapOrderReturn(fi *FuncInfo) bool {
	pkg := fi.Pkg
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		var iterObjs []types.Object
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if o := pkg.Info.Defs[id]; o != nil {
				iterObjs = append(iterObjs, o)
			} else if o := pkg.Info.Uses[id]; o != nil {
				iterObjs = append(iterObjs, o)
			}
		}
		if len(iterObjs) == 0 {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			if found {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := m.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, r := range ret.Results {
				for _, o := range iterObjs {
					if usesObject(pkg, r, o) {
						found = true
					}
				}
			}
			return true
		})
		return true
	})
	return found
}

// --- float provenance ---

// floatDerived reports whether every float fi returns is provenance-clean.
func (p *Program) floatDerived(fi *FuncInfo) bool {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return true
	}
	results := sig.Results()
	needs := false
	for i := 0; i < results.Len(); i++ {
		if isFloatType(results.At(i).Type()) {
			needs = true
		}
	}
	if !needs {
		return true
	}
	clean := true
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if !clean {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == 0:
			// Bare return with named results: the named result variables
			// of the unit's own signature are the objects the body assigns.
			for i := 0; i < results.Len(); i++ {
				v := results.At(i)
				if v.Name() == "" || !isFloatType(v.Type()) {
					continue
				}
				if !p.localFloatClean(fi, v, map[types.Object]bool{}) {
					clean = false
				}
			}
		case len(ret.Results) == 1 && results.Len() > 1:
			// return f() forwarding a tuple.
			if !p.floatClean(fi, ret.Results[0], map[types.Object]bool{}) {
				clean = false
			}
		default:
			for i, r := range ret.Results {
				if i < results.Len() && isFloatType(results.At(i).Type()) {
					if !p.floatClean(fi, r, map[types.Object]bool{}) {
						clean = false
					}
				}
			}
		}
		return true
	})
	return clean
}

// floatClean reports whether expr's float value provably traces to integer
// counts, constants, approved finalizers/packages, journal-bound fields
// (checked at their own store sites), or compositions thereof. stack
// guards local-variable recursion: a variable encountered while its own
// definitions are being judged is treated as clean, so accumulator shapes
// (sum = sum + term) reduce to judging their increments.
func (p *Program) floatClean(fi *FuncInfo, expr ast.Expr, stack map[types.Object]bool) bool {
	expr = ast.Unparen(expr)
	info := fi.Pkg.Info
	if tv, ok := info.Types[expr]; ok {
		if tv.Value != nil {
			return true // constant expression
		}
		if tv.Type != nil && !typeCarriesFloat(tv.Type) {
			return true // int-derived: conversions of these are the sanctioned origin
		}
	}
	switch e := expr.(type) {
	case *ast.BasicLit:
		return true
	case *ast.BinaryExpr:
		return p.floatClean(fi, e.X, stack) && p.floatClean(fi, e.Y, stack)
	case *ast.UnaryExpr:
		return p.floatClean(fi, e.X, stack)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: float64(x) is clean iff x is.
			if len(e.Args) == 1 {
				return p.floatClean(fi, e.Args[0], stack)
			}
			return false
		}
		fn, _, _, _ := resolveCallee(fi.Pkg, e)
		if fn == nil {
			return false // dynamic call: provenance unknown
		}
		sym := symbolOf(fn)
		if approvedFinalizers[sym] {
			return true
		}
		if fn.Pkg() != nil {
			pp := fn.Pkg().Path()
			if approvedFloatPkgs[pp] {
				return true
			}
			if pp == "math" {
				for _, a := range e.Args {
					if !p.floatClean(fi, a, stack) {
						return false
					}
				}
				return true
			}
		}
		if callee := p.Funcs[sym]; callee != nil {
			return callee.Summary.FloatDerived
		}
		return false
	case *ast.SelectorExpr:
		// A float field of a journal-bound struct was checked at its own
		// store site; reading it back is clean by induction.
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil && journalBound[typeSym(named)] {
				return true
			}
		}
		return false
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if fi.paramSet[obj] {
			return false // float parameter: caller provenance unknown
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return false // package variable: mutable from anywhere
		}
		return p.localFloatClean(fi, obj, stack)
	}
	return false
}

// localFloatClean judges a local variable by every definition recorded for
// it in fi's body (including op-assign increments, whose old-value half is
// covered by the variable's other definitions).
func (p *Program) localFloatClean(fi *FuncInfo, obj types.Object, stack map[types.Object]bool) bool {
	if stack[obj] {
		return true // accumulator cycle: judged by its other definitions
	}
	stack[obj] = true
	defer delete(stack, obj)
	if fi.floatDefs == nil {
		fi.floatDefs = collectFloatDefs(fi)
	}
	defs, ok := fi.floatDefs[obj]
	if !ok || len(defs) == 0 {
		return false // range variable, closure-written, or untracked
	}
	for _, d := range defs {
		if d == nil || !p.floatClean(fi, d, stack) {
			return false
		}
	}
	return true
}

// zeroDef stands in for the implicit zero value of a `var x float64`
// declaration with no initializer.
var zeroDef ast.Expr = &ast.BasicLit{}

// collectFloatDefs records every expression assigned to each local of fi,
// including assignments inside nested function literals (the objects are
// shared, and a closure write is still a definition). A nil entry marks a
// definition whose value cannot be tracked (range iteration variables).
func collectFloatDefs(fi *FuncInfo) map[types.Object][]ast.Expr {
	pkg := fi.Pkg
	defs := map[types.Object][]ast.Expr{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		defs[obj] = append(defs[obj], rhs)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				for _, l := range s.Lhs {
					mark(l, s.Rhs[0]) // tuple assign: the call judges it
				}
			} else {
				for i, l := range s.Lhs {
					if i < len(s.Rhs) {
						mark(l, s.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			switch {
			case len(s.Values) == 0:
				for _, nm := range s.Names {
					mark(nm, zeroDef)
				}
			case len(s.Values) == 1 && len(s.Names) > 1:
				for _, nm := range s.Names {
					mark(nm, s.Values[0])
				}
			default:
				for i, nm := range s.Names {
					if i < len(s.Values) {
						mark(nm, s.Values[i])
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if e != nil {
					mark(e, nil)
				}
			}
		}
		return true
	})
	return defs
}

// --- pooled-value provenance ---

// returnsPooled reports whether fi returns a pool-obtained value: directly
// from Pool.Get, or through a callee already summarized as a getter.
func (p *Program) returnsPooled(fi *FuncInfo) bool {
	pkg := fi.Pkg
	pooled := pooledLocals(p, fi)
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if p.isPooledSource(pkg, r) {
				found = true
				continue
			}
			for _, obj := range pooled {
				if aliasesObject(pkg, r, obj) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// pooledLocals collects, in source order, the locals of fi bound to a
// pooled value: `v := pool.Get().(T)` or `v := getScratch()` where the
// callee's summary says ReturnsPooled.
func pooledLocals(p *Program, fi *FuncInfo) []types.Object {
	pkg := fi.Pkg
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		if !p.isPooledSource(pkg, as.Rhs[0]) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// isPooledSource reports whether expr yields a pooled value: a (possibly
// type-asserted) Pool.Get, or a call to a getter per current summaries.
func (p *Program) isPooledSource(pkg *Package, expr ast.Expr) bool {
	if isPoolGetCall(pkg, expr) {
		return true
	}
	e := ast.Unparen(expr)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, _, _, _ := resolveCallee(pkg, call)
	if fn == nil {
		return false
	}
	callee := p.Funcs[symbolOf(fn)]
	return callee != nil && callee.Summary.ReturnsPooled
}

// paramStored reports whether fi stores par somewhere that outlives the
// call: a field/element/pointee, a package variable, a channel send, a
// goroutine capture, or (transitively) an argument position a callee
// stores. External callees are trusted not to store — the soundness trade
// documented in DESIGN.md §12.
func (p *Program) paramStored(fi *FuncInfo, par types.Object) bool {
	pkg := fi.Pkg
	stored := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if stored {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				} else if i < len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				if rhs == nil || !aliasesObject(pkg, rhs, par) || !exprShares(pkg, rhs) {
					continue
				}
				if aliasesObject(pkg, lhs, par) {
					continue // self-store (p.f = p.buf[:n]) does not extend p's lifetime
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					stored = true
				case *ast.Ident:
					if v := pkg.Info.Uses[l]; v != nil && isPkgLevelVar(v) {
						stored = true
					}
				}
			}
		case *ast.SendStmt:
			if usesObject(pkg, s.Value, par) {
				stored = true
			}
		case *ast.GoStmt:
			if usesObject(pkg, s.Call, par) {
				stored = true
			}
		}
		return true
	})
	if stored {
		return true
	}
	for _, e := range fi.Edges {
		if e.Kind != EdgeCall {
			continue
		}
		callee := p.Funcs[e.Callee]
		if callee == nil {
			continue
		}
		for j, sp := range callee.Summary.StoresParam {
			if !sp {
				continue
			}
			if arg := calleeArg(e, callee, j); arg != nil && aliasesObject(pkg, arg, par) {
				return true
			}
		}
	}
	return false
}

// paramReleased reports whether fi gives par back to its pool, directly
// (Pool.Put / Release) or through a callee that releases that position.
func (p *Program) paramReleased(fi *FuncInfo, par types.Object) bool {
	if containsRelease(fi.Pkg, fi.Decl.Body, par) {
		return true
	}
	for _, e := range fi.Edges {
		if e.Kind != EdgeCall {
			continue
		}
		callee := p.Funcs[e.Callee]
		if callee == nil {
			continue
		}
		for j, rp := range callee.Summary.ReleasesParam {
			if !rp {
				continue
			}
			if arg := calleeArg(e, callee, j); arg != nil && aliasesObject(fi.Pkg, arg, par) {
				return true
			}
		}
	}
	return false
}

// calleeArg maps a callee parameter position (receiver first) back to the
// caller-side expression at a call edge. Variadic trailing arguments clamp
// to the last position.
func calleeArg(e Edge, callee *FuncInfo, pos int) ast.Expr {
	if callee.Decl.Recv != nil {
		if pos == 0 {
			return e.Recv
		}
		pos--
	}
	if e.Call == nil || len(e.Call.Args) == 0 || pos < 0 {
		return nil
	}
	if pos >= len(e.Call.Args) {
		pos = len(e.Call.Args) - 1
	}
	return e.Call.Args[pos]
}

// --- small type helpers ---

// isFloatType reports whether t's underlying type is a float.
func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// typeCarriesFloat reports whether a value of type t contains a float
// component: a float itself, or a tuple with a float element (the result
// of a multi-value call being forwarded).
func typeCarriesFloat(t types.Type) bool {
	if isFloatType(t) {
		return true
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isFloatType(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// hasPointerShare reports whether a value of type t can share memory with
// another value: pointers, slices, maps, channels, funcs, interfaces, and
// aggregates containing them. Plain scalars copied out of a pooled object
// do not alias it.
func hasPointerShare(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(t types.Type) bool
	rec = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch tt := t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
			return true
		case *types.Struct:
			for i := 0; i < tt.NumFields(); i++ {
				if rec(tt.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return rec(tt.Elem())
		}
		return false
	}
	return rec(t)
}

// exprShares reports whether expr's value can share memory (see
// hasPointerShare); unknown types share, conservatively.
func exprShares(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return true
	}
	return hasPointerShare(tv.Type)
}

// isPkgLevelVar reports whether obj is a package-level variable.
func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if pt, ok := t.(*types.Pointer); ok {
		t = types.Unalias(pt.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeSym renders a named type as "pkgpath.Name", the journalBound key.
func typeSym(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// shortSym compresses a symbol for diagnostics: import paths shrink to
// their last element ("repro/internal/sim.f" → "sim.f", including inside
// method receivers).
func shortSym(sym string) string {
	trim := func(s string) string {
		if i := strings.LastIndex(s, "/"); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if strings.HasPrefix(sym, "(") {
		if i := strings.Index(sym, ")"); i > 0 {
			recv := sym[1:i]
			ptr := ""
			if strings.HasPrefix(recv, "*") {
				ptr = "*"
				recv = recv[1:]
			}
			return "(" + ptr + trim(recv) + ")" + sym[i+1:]
		}
	}
	return trim(sym)
}

// taintChain renders the witness path from sym to the ultimate source of
// kind-k taint, following the frozen Via links. The visited guard is a
// backstop for hand-built Programs; fixpoint-produced chains are acyclic.
func (p *Program) taintChain(sym string, k TaintKind) string {
	var parts []string
	seen := map[string]bool{}
	for cur := sym; cur != "" && !seen[cur]; {
		seen[cur] = true
		parts = append(parts, shortSym(cur))
		fi := p.Funcs[cur]
		if fi == nil {
			break
		}
		if fi.Summary.Via[k] == "" {
			if src := fi.Summary.Src[k]; src != "" {
				parts = append(parts, src)
			}
			break
		}
		cur = fi.Summary.Via[k]
	}
	return strings.Join(parts, " -> ")
}
