package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the analyzer toolkit: a
// module-wide call graph over the already-type-checked units, precise for
// static calls and for method calls whose receiver type is concrete, and
// deliberately conservative everywhere dynamic dispatch hides the callee.
//
// Functions are keyed by a stable symbol string ("pkgpath.Func" or
// "(*pkgpath.Type).Method") rather than by *types.Func identity: the
// loader type-checks each unit with full Info but resolves imports through
// a shared cache, so the same source function is represented by distinct
// object pointers in its own unit and in its importers. The symbol
// unifies them, and doubles as the deterministic iteration key for the
// summary fixpoint (see summary.go).
//
// Dynamic sites — calls through function values, function-typed fields,
// and interface method sets — get no call edge. They are recorded on the
// caller as DynamicSite entries so analyzers and tests can see exactly
// what the graph declined to resolve; the soundness consequences are
// documented in DESIGN.md §12.

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind int

const (
	// EdgeCall is a static call: the callee runs whenever the site executes.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function or method value reference (`f := pkg.F`,
	// `e.now = time.Now`). The referenced function may run later, from
	// anywhere; taint does NOT propagate through refs (the reference site
	// is where a direct-source suppression belongs), but the edge is kept
	// so the graph records the dependency.
	EdgeRef
)

// Edge is one resolved caller→callee edge.
type Edge struct {
	Kind   EdgeKind
	Callee string      // symbol of the callee
	Fn     *types.Func // resolved callee object (caller's view)
	Call   *ast.CallExpr
	Recv   ast.Expr // receiver expression of a method call, else nil
	Pos    token.Pos
}

// DynamicSite is a call the graph cannot resolve statically.
type DynamicSite struct {
	Desc string // e.g. "interface dispatch (pkg.Iface).M", "function value f"
	Pos  token.Pos
}

// FuncInfo is one module function with a body: its syntax, its outgoing
// edges, and the summary computed by the fixpoint.
type FuncInfo struct {
	Sym    string
	Pkg    *Package
	Decl   *ast.FuncDecl
	Obj    *types.Func    // the unit's own object for Decl
	Params []types.Object // receiver (if any) followed by declared parameters; nil for blanks
	Edges  []Edge
	// Dynamic lists the unresolved call sites, in source order.
	Dynamic []DynamicSite
	// Summary is valid after BuildProgram's fixpoint completes.
	Summary Summary
	// Hotpath records a //ttdc:hotpath contract in the declaration's doc
	// comment (see hotpath.go); HotpathReason is the mandatory free-text
	// justification that follows the marker.
	Hotpath       bool
	HotpathReason string

	level    int // import-DAG level of the enclosing unit (callee-first order)
	paramSet map[types.Object]bool
	// floatDefs lazily caches local-variable definitions for the float
	// provenance walk (see summary.go); pure syntax, stable across passes.
	floatDefs map[types.Object][]ast.Expr
	// hot lazily caches the allocation-site analysis (see alloc.go);
	// likewise stable across fixpoint passes.
	hot *hotFacts
}

// Program is the module-wide interprocedural index shared by the
// floatflow, poolescape, and detflow analyzers.
type Program struct {
	// Funcs maps symbol → function for every module function with a body.
	Funcs map[string]*FuncInfo
	// order lists symbols sorted by (import level, symbol): callees almost
	// always precede callers, so the fixpoint converges in one pass unless
	// recursion or an import cycle through test units forces another.
	order []string
	byPkg map[*Package][]*FuncInfo
	// asmLeaves holds the body-less module functions whose assembly makes
	// no call (see asmLeaves in alloc.go).
	asmLeaves map[string]bool
}

// BuildProgram assembles the call graph over pkgs and runs the summary
// fixpoint. The result depends only on the contents and order of pkgs —
// never on loader parallelism — which is what pins parallel and serial
// lint runs byte-identical.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{Funcs: map[string]*FuncInfo{}, byPkg: map[*Package][]*FuncInfo{}, asmLeaves: map[string]bool{}}
	for _, pkg := range pkgs {
		for sym := range asmLeaves(pkg) {
			p.asmLeaves[sym] = true
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				sym := symbolOf(obj)
				if _, dup := p.Funcs[sym]; dup {
					continue // same dir loaded through two patterns
				}
				fi := &FuncInfo{Sym: sym, Pkg: pkg, Decl: fd, Obj: obj}
				fi.HotpathReason, fi.Hotpath = hotpathDecl(fd)
				fi.collect(pkg)
				p.Funcs[sym] = fi
				p.byPkg[pkg] = append(p.byPkg[pkg], fi)
				p.order = append(p.order, sym)
			}
		}
	}
	p.computeLevels(pkgs)
	sort.Slice(p.order, func(i, j int) bool {
		a, b := p.Funcs[p.order[i]], p.Funcs[p.order[j]]
		if a.level != b.level {
			return a.level < b.level
		}
		return a.Sym < b.Sym
	})
	p.fixpoint()
	return p
}

// FuncsOf returns the functions of one unit in source order.
func (p *Program) FuncsOf(pkg *Package) []*FuncInfo { return p.byPkg[pkg] }

// Func returns the function with the given symbol, or nil.
func (p *Program) Func(sym string) *FuncInfo { return p.Funcs[sym] }

// collect gathers parameters, call edges, reference edges, and dynamic
// sites from one function body. Statements inside nested function literals
// are attributed to the enclosing declaration: a closure defined here is
// almost always run here (or handed to a caller that runs it), so folding
// its calls into the enclosing function over-approximates reachability in
// the direction that keeps taint sound for static calls.
func (fi *FuncInfo) collect(pkg *Package) {
	info := pkg.Info
	fd := fi.Decl
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				fi.Params = append(fi.Params, nil) // unnamed
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					fi.Params = append(fi.Params, nil)
					continue
				}
				fi.Params = append(fi.Params, info.Defs[name])
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	fi.paramSet = map[types.Object]bool{}
	for _, par := range fi.Params {
		if par != nil {
			fi.paramSet[par] = true
		}
	}

	calleeIdents := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, recv, id, dyn := resolveCallee(pkg, call)
		switch {
		case fn != nil:
			calleeIdents[id] = true
			fi.Edges = append(fi.Edges, Edge{
				Kind: EdgeCall, Callee: symbolOf(fn), Fn: fn,
				Call: call, Recv: recv, Pos: call.Pos(),
			})
		case dyn != "":
			fi.Dynamic = append(fi.Dynamic, DynamicSite{Desc: dyn, Pos: call.Pos()})
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			fi.Edges = append(fi.Edges, Edge{Kind: EdgeRef, Callee: symbolOf(fn), Fn: fn, Pos: id.Pos()})
		}
		return true
	})
}

// resolveCallee resolves the static callee of call. It returns exactly one
// of: a resolved *types.Func (with the receiver expression and the callee
// identifier), or a non-empty dyn description for sites that need dynamic
// dispatch. Conversions, builtins, and immediate function-literal calls
// return all zero values — they are not edges.
func resolveCallee(pkg *Package, call *ast.CallExpr) (fn *types.Func, recv ast.Expr, id *ast.Ident, dyn string) {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return obj, nil, fun, ""
		case *types.Var:
			return nil, nil, nil, "function value " + fun.Name
		}
		return nil, nil, nil, "" // conversion, builtin, or unresolved
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			f, ok := s.Obj().(*types.Func)
			if !ok {
				return nil, nil, nil, "function-valued field " + fun.Sel.Name
			}
			if types.IsInterface(s.Recv()) {
				return nil, nil, nil, "interface dispatch " + symbolOf(f)
			}
			return f, fun.X, fun.Sel, ""
		}
		// Qualified reference: pkg.F(...) or a conversion pkg.T(...).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return obj, nil, fun.Sel, ""
		case *types.Var:
			return nil, nil, nil, "function value " + fun.Sel.Name
		}
	}
	return nil, nil, nil, ""
}

// symbolOf derives the stable symbol of a function or method. Object
// pointers differ between a unit's own check and its importers' cached
// view; symbols do not.
func symbolOf(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	var recv *types.Var
	if sig != nil {
		recv = sig.Recv()
	}
	if recv == nil {
		if fn.Pkg() == nil {
			return name
		}
		return fn.Pkg().Path() + "." + name
	}
	t := recv.Type()
	ptr := ""
	if pt, ok := types.Unalias(t).(*types.Pointer); ok {
		ptr = "*"
		t = pt.Elem()
	}
	switch tt := types.Unalias(t).(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() == nil {
			return "(" + ptr + obj.Name() + ")." + name // error.Error and friends
		}
		return "(" + ptr + obj.Pkg().Path() + "." + obj.Name() + ")." + name
	case *types.Interface:
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + ".(interface)." + name
		}
		return "(interface)." + name
	default:
		return "(?)." + name
	}
}

// computeLevels assigns each function the level of its unit in the import
// DAG restricted to the loaded units: one above the highest loaded unit it
// imports, so the fixpoint visits imported packages before their
// importers. External test units sit one level above their base package
// so their helpers see settled summaries.
func (p *Program) computeLevels(pkgs []*Package) {
	byPath := map[string]*types.Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Types.Path()] = pkg.Types
	}
	level := map[string]int{}
	visiting := map[string]bool{}
	var lv func(path string) int
	lv = func(path string) int {
		if l, ok := level[path]; ok {
			return l
		}
		if visiting[path] {
			return 0 // cycle guard; Go forbids import cycles, belt and braces
		}
		visiting[path] = true
		defer delete(visiting, path)
		max := 0
		if tp := byPath[path]; tp != nil {
			for _, imp := range tp.Imports() {
				if _, loaded := byPath[imp.Path()]; loaded {
					if d := lv(imp.Path()) + 1; d > max {
						max = d
					}
				}
			}
		}
		if base, ok := strings.CutSuffix(path, "_test"); ok {
			if _, loaded := byPath[base]; loaded {
				if d := lv(base) + 1; d > max {
					max = d
				}
			}
		}
		level[path] = max
		return max
	}
	for _, pkg := range pkgs {
		lv(pkg.Types.Path())
	}
	for _, fi := range p.Funcs {
		fi.level = level[fi.Pkg.Types.Path()]
	}
}
