package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// Loader parses and type-checks the packages of the enclosing module using
// only the standard library. Imports inside the module are checked from
// source under Root; every other import (the standard library) is read
// from the export data the go command builds for it. A Loader is not safe
// for concurrent use.
type Loader struct {
	// Module is the module path from go.mod.
	Module string
	// Root is the absolute module root directory.
	Root string
	// Fset is shared by every parse and by the export data reader.
	Fset *token.FileSet

	std     types.Importer
	cache   map[string]*types.Package // import path -> checked (non-test files only)
	loading map[string]bool
	listed  map[string]listedPackage // nil until the first import from outside the module
}

// listedPackage is one package as `go list -json` reports it.
type listedPackage struct {
	ImportPath string
	Export     string // the export data file; empty if none was built
	Error      *struct{ Err string }
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
	l := &Loader{
		Module:  module,
		Root:    root,
		Fset:    token.NewFileSet(),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.Fset, "gc", l.openExport)
	return l, nil
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
// paths are checked from source under Root, anything else is read from
// its export data. Loader itself implements types.Importer so checked
// packages can import each other.
func (l *Loader) Import(path string) (*types.Package, error) {
	dir, internal := l.dirFor(path)
	if !internal {
		return l.std.Import(path)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// openExport opens the export data of an import path from outside the
// module. The first call lists path and every such path the module's files
// import, with their dependencies, in one go list run; a later path
// outside that set (a test fixture's) costs one more run. A path go list
// cannot build is a load error naming the path and go list's reason.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	if l.listed == nil {
		l.listed = map[string]listedPackage{}
		paths, err := l.moduleImports()
		if err != nil {
			return nil, err
		}
		if err := l.goList(append(paths, path)); err != nil {
			return nil, err
		}
	}
	if _, ok := l.listed[path]; !ok {
		if err := l.goList([]string{path}); err != nil {
			return nil, err
		}
	}
	p := l.listed[path]
	switch {
	case p.Error != nil:
		return nil, fmt.Errorf("lint: no export data for %s: %s", path, p.Error.Err)
	case p.Export == "":
		return nil, fmt.Errorf("lint: no export data for %s: go list did not report it", path)
	}
	return os.Open(p.Export)
}

// goList runs `go list -e -export -deps` on paths from the module root,
// with the go command of the GOROOT that go/build reads, and records what
// it reports for each listed package. The build cache makes a repeated
// run cheap; a failing go command is a load error.
func (l *Loader) goList(paths []string) error {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export,Error"}, paths...)
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = l.Root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("lint: reading go list output: %w", err)
		}
		l.listed[p.ImportPath] = p
	}
	return nil
}

// moduleImports lists the import paths from outside the module that the
// Go files under Root import, test files included.
func (l *Loader) moduleImports() ([]string, error) {
	dirs, err := walkDirs(l.Root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var paths []string
	for _, dir := range dirs {
		names, err := buildFiles(dir, ".go", true)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			// A file that does not parse fails when its package loads;
			// the imports read before the error still count.
			f, _ := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if f == nil {
				continue
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if _, internal := l.dirFor(path); err != nil || internal || seen[path] {
					continue
				}
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	return paths, nil
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
	dirs, err := walkDirs(root)
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
func walkDirs(root string) ([]string, error) {
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

// LoadTreeParallel is LoadTree; workers is ignored.
//
// Deprecated: use LoadTree. It remains only while the benchmark module
// (_perfbench) calls it.
func (l *Loader) LoadTreeParallel(root string, tests bool, workers int) ([]*Package, error) {
	return l.LoadTree(root, tests)
}
