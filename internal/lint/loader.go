package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked unit: either a package (its compile files
// plus in-package test files) or the external _test package of a directory.
type Package struct {
	// Path is the import path ("repro/internal/core", or with a "_test"
	// suffix for external test packages).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is the loader's shared file set; all Diagnostic positions
	// resolve through it.
	Fset *token.FileSet
	// Files are the parsed files of the unit, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
	// Prog is the module-wide interprocedural index, shared by every unit
	// of one lint run; LintAll fills it before any analyzer runs.
	Prog *Program
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Imports inside the module are resolved
// against the module root; everything else is delegated to the go/importer
// source importer, which type-checks the standard library from GOROOT.
type Loader struct {
	// Module is the module path from go.mod.
	Module string
	// Root is the absolute module root directory.
	Root string
	// Fset is shared by every parse, including the source importer's.
	Fset *token.FileSet

	std     types.ImporterFrom
	mu      sync.Mutex                // guards cache and loading
	cache   map[string]*types.Package // import path -> checked (non-test files only)
	loading map[string]bool
	stdMu   sync.Mutex // the source importer is not documented as concurrency-safe
}

// NewLoader locates the enclosing module by walking up from dir (or the
// working directory if dir is "") to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := modulePath(string(data))
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Module:  module,
		Root:    root,
		Fset:    fset,
		std:     std,
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import resolves an import path for the type checker: module-internal
// paths are checked from source under Root, anything else goes to the
// source importer. Loader itself implements types.Importer so checked
// packages can import each other.
//
// Import is safe for concurrent use, with one caveat: two goroutines may
// not concurrently import module-internal packages whose dependency
// closures overlap, or the in-progress marker reads as a cycle.
// LoadTreeParallel avoids this by pre-filling the cache in dependency
// order, so its phase-B checks only ever hit the cache.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	pkg, ok := l.cache[path]
	l.mu.Unlock()
	if ok {
		return pkg, nil
	}
	dir, internal := l.dirFor(path)
	if !internal {
		l.stdMu.Lock()
		defer l.stdMu.Unlock()
		return l.std.ImportFrom(path, l.Root, 0)
	}
	l.mu.Lock()
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, path)
		l.mu.Unlock()
	}()

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err = conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.cache[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (dir string, internal bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// buildFiles lists the files of dir with the given extension (".go" or
// ".s") that the go command would build on this GOOS and GOARCH: go/build
// applies the _GOOS/_GOARCH name suffixes and //go:build lines, and
// leaves out names starting with "." or "_". So a package with
// per-architecture files loads as one consistent set. The names are
// sorted; with tests false, _test.go files are left out. A file whose
// header go/build cannot read is kept, so the parser reports its error.
func buildFiles(dir, ext string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); ok || err != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// parseDir parses the Go files of dir, sorted by name. With tests false it
// keeps only compile files; with tests true it returns compile files,
// in-package test files, and external test files as three slices appended
// in that order by the caller via splitting on package name.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	names, err := buildFiles(dir, ".go", tests)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir loads the package in dir for linting. It returns up to two
// units: the package itself (compile files plus in-package test files when
// tests is true) and, when present and tests is true, the external _test
// package. Directories with no Go files return no units and no error.
func (l *Loader) LoadDir(dir string, tests bool) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	all, err := l.parseDir(abs, tests)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	path := l.pathFor(abs)

	// Split into the primary unit and the external test package by
	// package name: "foo_test" files form their own unit.
	var primary, xtest []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			primary = append(primary, f)
		}
	}
	var units []*Package
	if len(primary) > 0 {
		u, err := l.check(path, abs, primary)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(xtest) > 0 {
		u, err := l.check(path+"_test", abs, xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// pathFor derives the import path of an absolute directory inside (or
// outside) the module root.
func (l *Loader) pathFor(abs string) string {
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(abs)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// check type-checks one unit with full Info for the analyzers.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: pkg, Info: info}, nil
}

// LoadTree loads every package directory under root (which must be inside
// the module), skipping testdata, hidden, and underscore directories.
func (l *Loader) LoadTree(root string, tests bool) ([]*Package, error) {
	dirs, err := l.walkDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.LoadDir(dir, tests)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// walkDirs collects the package directories under root, sorted, skipping
// testdata, hidden, and underscore directories.
func (l *Loader) walkDirs(root string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadTreeParallel is LoadTree with concurrent type-checking. It runs in
// two phases so the shared import cache is only ever read concurrently,
// never raced on:
//
//   - Phase A walks the module-internal import DAG (imports of the target
//     directories plus their transitive internal closure), then checks it
//     into the cache level by level — a package is checked only after all
//     of its dependencies, and packages within a level are independent, so
//     they check in parallel. Leftover nodes mean an import cycle.
//   - Phase B checks the target units themselves (with test files and full
//     Info) across `workers` goroutines; every internal import is a cache
//     hit by construction.
//
// The result is identical to LoadTree: same units, same order.
func (l *Loader) LoadTreeParallel(root string, tests bool, workers int) ([]*Package, error) {
	dirs, err := l.walkDirs(root)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return l.LoadTree(root, tests)
	}
	if err := l.prefill(dirs, tests, workers); err != nil {
		return nil, err
	}
	units := make([][]*Package, len(dirs))
	errs := make([]error, len(dirs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				units[i], errs[i] = l.LoadDir(dirs[i], tests)
			}
		}()
	}
	for i := range dirs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var pkgs []*Package
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pkgs = append(pkgs, units[i]...)
	}
	return pkgs, nil
}

// prefill type-checks the module-internal dependency closure of dirs into
// the import cache, in dependency order, parallel within each level.
func (l *Loader) prefill(dirs []string, tests bool, workers int) error {
	// deps maps each internal import path to the internal paths its
	// compile (and, for target dirs, in-package test) files import — the
	// edges that constrain check order. External-test imports only seed
	// new nodes: package p_test may depend on packages that import p.
	deps := map[string][]string{}
	var queue []string
	seed := func(path string) {
		if _, ok := deps[path]; !ok {
			deps[path] = nil
			queue = append(queue, path)
		}
	}
	for _, dir := range dirs {
		ordering, extra, err := l.importsOf(dir, tests)
		if err != nil {
			return err
		}
		if ordering == nil && extra == nil {
			continue // no Go files
		}
		path := l.pathFor(dir)
		seed(path)
		deps[path] = ordering
		for _, p := range append(ordering, extra...) {
			seed(p)
		}
	}
	// Expand the closure: every seeded non-target node contributes its own
	// compile imports.
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if deps[path] != nil {
			continue
		}
		dir, internal := l.dirFor(path)
		if !internal {
			delete(deps, path)
			continue
		}
		ordering, _, err := l.importsOf(dir, false)
		if err != nil {
			return err
		}
		deps[path] = ordering
		for _, p := range ordering {
			seed(p)
		}
	}
	// Kahn's algorithm by levels, checking each level in parallel.
	done := map[string]bool{}
	for len(done) < len(deps) {
		var ready []string
		for path, ds := range deps {
			if done[path] {
				continue
			}
			ok := true
			for _, d := range ds {
				if _, tracked := deps[d]; tracked && !done[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, path)
			}
		}
		if len(ready) == 0 {
			var left []string
			for path := range deps {
				if !done[path] {
					left = append(left, path)
				}
			}
			sort.Strings(left)
			return fmt.Errorf("lint: import cycle among %s", strings.Join(left, ", "))
		}
		sort.Strings(ready)
		errs := make([]error, len(ready))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, path := range ready {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, path string) {
				defer wg.Done()
				defer func() { <-sem }()
				_, errs[i] = l.Import(path)
			}(i, path)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, path := range ready {
			done[path] = true
		}
	}
	return nil
}

// importsOf parses the import clauses of dir's Go files (ImportsOnly — no
// bodies) and splits the module-internal paths into ordering edges
// (compile and in-package test files, which the checker treats exactly
// like Go's import-cycle rules) and extras (external _test package files,
// which may legally import packages that import this one).
func (l *Loader) importsOf(dir string, tests bool) (ordering, extra []string, err error) {
	names, err := buildFiles(dir, ".go", tests)
	if err != nil {
		return nil, nil, err
	}
	seenOrd := map[string]bool{}
	seenExtra := map[string]bool{}
	found := false
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, nil, err
		}
		found = true
		xtest := strings.HasSuffix(f.Name.Name, "_test")
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if _, internal := l.dirFor(path); !internal {
				continue
			}
			if xtest {
				if !seenExtra[path] {
					seenExtra[path] = true
					extra = append(extra, path)
				}
			} else if !seenOrd[path] {
				seenOrd[path] = true
				ordering = append(ordering, path)
			}
		}
	}
	if !found {
		return nil, nil, nil
	}
	if ordering == nil {
		ordering = []string{}
	}
	return ordering, extra, nil
}
