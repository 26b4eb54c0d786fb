package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// benchTree caches one module-wide load shared by every benchmark in this
// file, so per-analyzer timings measure analysis, not parsing.
var benchTree struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func benchPkgs(b *testing.B) []*Package {
	benchTree.once.Do(func() {
		loader, err := NewLoader("")
		if err != nil {
			benchTree.err = err
			return
		}
		benchTree.pkgs, benchTree.err = loader.LoadTree(filepath.Join("..", ".."), true)
	})
	if benchTree.err != nil {
		b.Fatal(benchTree.err)
	}
	if len(benchTree.pkgs) == 0 {
		b.Fatal("module load produced no packages")
	}
	return benchTree.pkgs
}

// BenchmarkLoadTree times a full load of the module by a fresh loader:
// the go list run, the standard library's export data, and the parse and
// type-check of every package.
func BenchmarkLoadTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader("")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loader.LoadTree(filepath.Join("..", ".."), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildProgram times call-graph construction plus the summary
// fixpoint over the whole module.
func BenchmarkBuildProgram(b *testing.B) {
	pkgs := benchPkgs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildProgram(pkgs)
	}
}

// BenchmarkAnalyzer reports per-analyzer wall time over the whole module,
// with the interprocedural program prebuilt (as in a real lint run, where
// its cost is shared by all analyzers).
func BenchmarkAnalyzer(b *testing.B) {
	pkgs := benchPkgs(b)
	prog := BuildProgram(pkgs)
	for _, pkg := range pkgs {
		pkg.Prog = prog
	}
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pkg := range pkgs {
					a.Run(pkg)
				}
			}
		})
	}
}

// BenchmarkLintAll times the full production path: program build,
// directive collection, every analyzer, suppression, and sorting.
func BenchmarkLintAll(b *testing.B) {
	pkgs := benchPkgs(b)
	analyzers := All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LintAll(pkgs, analyzers)
	}
}
