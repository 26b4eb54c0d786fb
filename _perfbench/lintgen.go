package main

import (
	"fmt"
	"go/format"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// The lint path's input is a module generated from the seed, not the
// live tree, so a change under test never changes the workload. It uses
// the module path "repro" and the repository's package paths (walltime,
// detflow, floatflow and droppederr key on them), imports the standard
// library packages the repository imports, and is about the size of the
// repository's code. Into this finding-free filler it plants a seeded
// number of findings per analyzer; the report must match that prediction.

// genPackages are the repository's package paths, relative to the module.
var genPackages = []string{
	".", "cmd/ttdcanalyze", "cmd/ttdcbatch", "cmd/ttdcbench", "cmd/ttdcgen", "cmd/ttdclint",
	"cmd/ttdcload", "cmd/ttdcplan", "cmd/ttdcserve", "cmd/ttdcsim", "cmd/ttdcsweep",
	"examples/broadcast", "examples/datacollection", "examples/dynamictopology",
	"examples/energytuning", "examples/quickstart",
	"internal/baseline", "internal/bitset", "internal/cff", "internal/combin", "internal/core",
	"internal/engine", "internal/experiments", "internal/gf", "internal/lint", "internal/optimize",
	"internal/plan", "internal/report", "internal/schedcache", "internal/serve", "internal/shard",
	"internal/sim", "internal/stats", "internal/tablewriter", "internal/topology", "internal/trace",
	"internal/wire",
}

// genStdlib maps each standard library package the repository's non-test
// code imports to an identifier the filler references, so every import is
// used; test files import testing and testing/quick.
var genStdlib = map[string]string{
	"bufio": "bufio.NewReader", "bytes": "bytes.NewBuffer", "container/list": "list.New",
	"context": "context.Background", "crypto/sha256": "sha256.Sum256",
	"encoding/binary": "binary.LittleEndian", "encoding/hex": "hex.EncodeToString",
	"encoding/json": "json.Marshal", "errors": "errors.New", "flag": "flag.NewFlagSet",
	"fmt": "fmt.Sprintf", "go/ast": "ast.Inspect", "go/format": "format.Source",
	"go/importer": "importer.ForCompiler", "go/parser": "parser.ParseFile",
	"go/token": "token.NewFileSet", "go/types": "types.NewPackage",
	"hash/crc32": "crc32.ChecksumIEEE", "hash/fnv": "fnv.New64a", "io": "io.EOF",
	"io/fs": "fs.ErrNotExist", "log": "log.New", "math": "math.Sqrt", "math/big": "big.NewRat",
	"math/bits": "bits.OnesCount64", "math/rand": "rand.NewSource", "net": "net.ParseIP",
	"net/http": "http.StatusOK", "net/http/httptest": "httptest.NewRecorder", "os": "os.Getenv",
	"os/signal": "signal.Notify", "path/filepath": "filepath.Join", "reflect": "reflect.TypeOf",
	"regexp": "regexp.MustCompile", "runtime": "runtime.NumCPU", "sort": "sort.Ints",
	"strconv": "strconv.Itoa", "strings": "strings.Repeat", "sync": "sync.NewCond",
	"sync/atomic": "atomic.AddInt64", "syscall": "syscall.Getpid", "time": "time.Millisecond",
}

// Target sizes: the repository's non-test and test Go lines.
const (
	genCodeLines = 23000
	genTestLines = 14800
)

// genFile is one generated file, relative to the module root.
type genFile struct {
	path string
	data []byte
}

// genModule is the generated module and the findings it must produce.
type genModule struct {
	files   []genFile
	predict map[string]int // analyzer -> findings
	units   int            // package units ttdclint checks
}

// total is the number of findings the module must produce.
func (m *genModule) total() int {
	t := 0
	for _, n := range m.predict {
		t += n
	}
	return t
}

func pkgName(dir string) string {
	switch {
	case dir == ".":
		return "ttdc"
	case strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/"):
		return "main"
	}
	return path.Base(dir)
}

// foldName is the exported function every generated package declares.
func foldName(pkg string) string { return "Fold" + strings.ToUpper(pkg[:1]) + pkg[1:] }

func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

// plant is one finding template: the analyzer it trips, where it may go,
// and its source (with %d for a unique suffix). extra counts the findings
// of other analyzers the template also produces.
type plant struct {
	analyzer string
	dirs     []string
	imports  []string
	src      string
	extra    map[string]int
}

var anyDirs = []string{"internal/report", "internal/plan", "internal/optimize", "internal/serve", "internal/shard", "cmd/ttdcgen"}
var detDirs = []string{"internal/engine", "internal/core", "internal/sim"}

var plants = []plant{
	{analyzer: "ratcompare", dirs: anyDirs, imports: []string{"math/big"}, src: `
// SameRat%[1]d compares rationals by pointer.
func SameRat%[1]d(a, b *big.Rat) bool {
	return a == b
}
`},
	{analyzer: "maporder", dirs: anyDirs, imports: []string{"fmt"}, src: `
// DumpMap%[1]d prints in map order.
func DumpMap%[1]d(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`},
	{analyzer: "ratfloat", dirs: anyDirs, imports: []string{"math/big"}, src: `
// ApproxRat%[1]d leaks exactness.
func ApproxRat%[1]d(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}
`},
	{analyzer: "poolput", dirs: anyDirs, imports: []string{"sync"}, src: `
type leakScratch%[1]d struct{ sums []uint64 }

var leakPool%[1]d = sync.Pool{New: func() any { return new(leakScratch%[1]d) }}

// LeakyScratch%[1]d drops the pooled object on the early-return path.
func LeakyScratch%[1]d(skip bool) int {
	s := leakPool%[1]d.Get().(*leakScratch%[1]d)
	if skip {
		return 0
	}
	n := len(s.sums)
	leakPool%[1]d.Put(s)
	return n
}
`},
	{analyzer: "ctxcancel", dirs: anyDirs, imports: []string{"context"}, src: `
// DetachedContext%[1]d throws the cancel func away.
func DetachedContext%[1]d(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent)
	return ctx
}
`},
	{analyzer: "waitpair", dirs: anyDirs, src: `
// FireAndForget%[1]d spawns a goroutine nothing can join.
func FireAndForget%[1]d() {
	go stepOnce%[1]d()
}

func stepOnce%[1]d() {}
`},
	{analyzer: "atomicmix", dirs: anyDirs, imports: []string{"sync/atomic"}, src: `
var mixedOps%[1]d int64

// CountOp%[1]d writes atomically.
func CountOp%[1]d() {
	atomic.AddInt64(&mixedOps%[1]d, 1)
}

// ReadOps%[1]d reads the same counter with a plain load.
func ReadOps%[1]d() int64 {
	return mixedOps%[1]d
}
`},
	{analyzer: "mutexcopy", dirs: anyDirs, imports: []string{"sync"}, src: `
type guarded%[1]d struct {
	mu sync.Mutex
	n  int
}

// SnapshotGuarded%[1]d copies the mutex along with the data.
func SnapshotGuarded%[1]d(g guarded%[1]d) int {
	return g.n
}
`},
	{analyzer: "walltime", dirs: detDirs, imports: []string{"time"}, src: `
// Stamp%[1]d reads the wall clock in a deterministic package.
func Stamp%[1]d() time.Time {
	return time.Now()
}
`},
	{analyzer: "detflow", dirs: detDirs, imports: []string{"time"}, extra: map[string]int{"walltime": 1}, src: `
// clock%[1]d reads the wall clock.
func clock%[1]d() time.Time {
	return time.Now()
}

// IndirectStamp%[1]d launders the wall clock one call away.
func IndirectStamp%[1]d() time.Time {
	return clock%[1]d()
}
`},
	{analyzer: "floatflow", dirs: []string{"internal/engine"}, src: `
// FillMetrics%[1]d stores a float of unknown provenance into a journal row.
func FillMetrics%[1]d(res *Metrics, e float64) {
	res.Energy = e
	res.Count++
}
`},
	{analyzer: "poolescape", dirs: anyDirs, imports: []string{"sync"}, src: `
type escScratch%[1]d struct{ sums []uint64 }

var escPool%[1]d = sync.Pool{New: func() any { return new(escScratch%[1]d) }}

type escHolder%[1]d struct{ s *escScratch%[1]d }

// StashScratch%[1]d parks pooled scratch in a holder that outlives the Put.
func StashScratch%[1]d(h *escHolder%[1]d) {
	s := escPool%[1]d.Get().(*escScratch%[1]d)
	h.s = s
	escPool%[1]d.Put(s)
}
`},
	{analyzer: "allocflow", dirs: anyDirs, src: `
// HotMake%[1]d allocates on a declared warm path.
//
//ttdc:hotpath claimed allocation-free but calls make
func HotMake%[1]d(n int) []int {
	return make([]int, n)
}
`},
	{analyzer: "boxing", dirs: anyDirs, src: `
var boxSink%[1]d interface{}

// HotBox%[1]d boxes an int on a declared warm path.
//
//ttdc:hotpath claimed box-free but stores an int in an interface
func HotBox%[1]d(v int) {
	boxSink%[1]d = v
}
`},
	{analyzer: "growloop", dirs: anyDirs, src: `
var queue%[1]d []int

// HotGrow%[1]d appends in a loop with no pre-size proof.
//
//ttdc:hotpath claimed pre-sized but grows per iteration
func HotGrow%[1]d(xs []int) {
	for _, x := range xs {
		queue%[1]d = append(queue%[1]d, x)
	}
}
`},
	{analyzer: "droppederr", dirs: anyDirs, imports: []string{"repro/internal/core"}, src: `
// DropCheck%[1]d discards a core validation error.
func DropCheck%[1]d() {
	core.CheckSize(%[1]d)
}
`},
	{analyzer: "seededrand", dirs: anyDirs, imports: []string{"math/rand"}, src: `
// Roll%[1]d draws from the global generator.
func Roll%[1]d() int {
	return rand.Intn(6)
}
`},
}

// genBuilder accumulates one generated file.
type genBuilder struct {
	imports map[string]bool
	body    strings.Builder
	lines   int
}

// generateModule builds the lint path's module for seed.
func generateModule(seed uint64) (*genModule, error) {
	rng := stats.NewRNG(stats.DeriveSeed(seed, 30))
	m := &genModule{predict: map[string]int{}}
	var files []genFile

	// Every package imports the standard library packages of its share,
	// so together they import all of them.
	std := sortedKeys(genStdlib)
	byDir := map[string][]string{}
	for i, p := range std {
		d := genPackages[(i*7+rng.Intn(3))%len(genPackages)]
		byDir[d] = append(byDir[d], p)
	}
	plantsIn := map[string][]string{}
	plantImports := map[string][]string{}
	for _, p := range plants {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			d := p.dirs[rng.Intn(len(p.dirs))]
			plantsIn[d] = append(plantsIn[d], fmt.Sprintf(p.src, m.total()+1))
			plantImports[d] = append(plantImports[d], p.imports...)
			m.predict[p.analyzer]++
			for a, n := range p.extra {
				m.predict[a] += n
			}
		}
	}
	codePer := genCodeLines / len(genPackages)
	testPer := genTestLines / len(genPackages)
	for pi, dir := range genPackages {
		name := pkgName(dir)
		// Module-internal imports form a DAG over the package order.
		var deps []string
		for _, prev := range genPackages[:pi] {
			if prev != "." && !strings.HasPrefix(prev, "cmd/") && !strings.HasPrefix(prev, "examples/") && rng.Intn(4) == 0 && len(deps) < 3 {
				deps = append(deps, prev)
			}
		}
		for _, imp := range plantImports[dir] {
			if imp == "repro/internal/core" && !slices.Contains(deps, "internal/core") {
				deps = append(deps, "internal/core")
			}
		}
		files = append(files, genCode(rng, dir, name, byDir[dir], deps, codePer, plantsIn[dir], plantImports[dir])...)
		files = append(files, genTests(rng, dir, name, testPer)...)
		m.units++
	}
	files = append(files, genFile{"go.mod", []byte("module repro\n\ngo 1.22\n")})
	for i := range files {
		if !strings.HasSuffix(files[i].path, ".go") {
			continue
		}
		src, err := format.Source(files[i].data)
		if err != nil {
			return nil, fmt.Errorf("generated %s does not parse: %w", files[i].path, err)
		}
		files[i].data = src
	}
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	m.files = files
	return m, nil
}

// genCode writes a package's non-test files: filler functions up to the
// line target, the package's planted findings, and the fixed declarations
// some plants rely on (engine.Metrics, core.CheckSize).
func genCode(rng *stats.RNG, dir, name string, std, deps []string, target int, planted, plantImports []string) []genFile {
	var files []genFile
	fold := foldName(name)
	fileNo := 0
	emit := func(b *genBuilder) {
		var src strings.Builder
		fmt.Fprintf(&src, "// Code generated for the lint benchmark; it only has to type-check.\n\npackage %s\n\n", name)
		imps := sortedKeys(b.imports)
		if len(imps) > 0 {
			src.WriteString("import (\n")
			for _, p := range imps {
				fmt.Fprintf(&src, "\t%q\n", p)
			}
			src.WriteString(")\n")
		}
		src.WriteString(b.body.String())
		files = append(files, genFile{path.Join(dir, fmt.Sprintf("gen%02d.go", fileNo)), []byte(src.String())})
		fileNo++
	}
	newB := func() *genBuilder { return &genBuilder{imports: map[string]bool{}} }

	// First file: the package's exported fold, its stdlib references, its
	// module imports, and the fixed declarations.
	b := newB()
	fmt.Fprintf(&b.body, `
// %[1]s folds a series the way every generated package does.
func %[1]s(xs []int) int {
	acc := %[2]d
	for i, x := range xs {
		acc = acc*31 + x ^ i
	}
	return acc
}
`, fold, rng.Intn(1000))
	for _, p := range std {
		b.imports[p] = true
		fmt.Fprintf(&b.body, "\nvar _ = %s\n", genStdlib[p])
	}
	for _, d := range deps {
		imp := importPath(d)
		b.imports[imp] = true
		fmt.Fprintf(&b.body, "\n// Use%[1]s reaches into %[2]s.\nfunc Use%[1]s(xs []int) int { return %[3]s.%[4]s(xs) }\n",
			strings.ToUpper(pkgName(d)[:1])+pkgName(d)[1:], imp, pkgName(d), foldName(pkgName(d)))
	}
	switch dir {
	case "internal/engine":
		b.body.WriteString(`
// Metrics is a journal row.
type Metrics struct {
	Energy float64
	Count  int
}
`)
	case "internal/core":
		b.imports["errors"] = true
		b.body.WriteString(`
// CheckSize rejects an impossible class size.
func CheckSize(n int) error {
	if n < 2 {
		return errors.New("core: class size below 2")
	}
	return nil
}
`)
	}
	if name == "main" {
		b.body.WriteString("\nfunc main() {}\n")
	}
	emit(b)

	if len(planted) > 0 {
		b = newB()
		for _, p := range plantImports {
			b.imports[p] = true
		}
		for _, src := range planted {
			b.body.WriteString(src)
		}
		emit(b)
	}

	lines := 0
	b = newB()
	for fn := 0; lines < target; fn++ {
		src := fillerFunc(rng, fn)
		b.body.WriteString(src)
		n := strings.Count(src, "\n")
		lines += n
		b.lines += n
		if b.lines > 300 {
			emit(b)
			b = newB()
		}
	}
	if b.lines > 0 {
		emit(b)
	}
	return files
}

// fillerFunc is one finding-free function: integer loops, a small record
// type with a method, and string building over slices.
func fillerFunc(rng *stats.RNG, fn int) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf(`
// fold%[1]d mixes a series with a seeded rule.
func fold%[1]d(xs []int) int {
	acc := %[2]d
	for i, x := range xs {
		if x%%%[3]d == %[4]d {
			acc += x * (i + 1)
		} else {
			acc ^= x << (i %% 7)
		}
	}
	return acc
}
`, fn, rng.Intn(100), 2+rng.Intn(9), rng.Intn(2))
	case 1:
		return fmt.Sprintf(`
// rec%[1]d is a small record.
type rec%[1]d struct {
	id    int
	label string
	vals  []int
}

// total sums the record's values.
func (r *rec%[1]d) total() int {
	t := %[2]d
	for _, v := range r.vals {
		t += v
	}
	return t
}

// grow returns a copy with one more value.
func (r rec%[1]d) grow(v int) rec%[1]d {
	out := rec%[1]d{id: r.id + 1, label: r.label, vals: make([]int, 0, len(r.vals)+1)}
	out.vals = append(out.vals, r.vals...)
	out.vals = append(out.vals, v)
	return out
}
`, fn, rng.Intn(100))
	default:
		return fmt.Sprintf(`
// classify%[1]d buckets a value.
func classify%[1]d(n int) string {
	switch {
	case n < %[2]d:
		return "low"
	case n < %[3]d:
		return "mid"
	default:
		return "high"
	}
}

// label%[1]d joins bucket names.
func label%[1]d(xs []int) string {
	parts := make([]string, 0, len(xs))
	for _, x := range xs {
		parts = append(parts, classify%[1]d(x))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}
`, fn, rng.Intn(50), 50+rng.Intn(50))
	}
}

// genTests writes a package's in-package test files.
func genTests(rng *stats.RNG, dir, name string, target int) []genFile {
	var files []genFile
	lines, fileNo := 0, 0
	var b strings.Builder
	flush := func() {
		var src strings.Builder
		fmt.Fprintf(&src, "// Code generated for the lint benchmark; it only has to type-check.\n\npackage %s\n\nimport (\n\t\"testing\"\n\t\"testing/quick\"\n)\n\nvar _ = quick.Check\n", name)
		src.WriteString(b.String())
		files = append(files, genFile{path.Join(dir, fmt.Sprintf("gen%02d_test.go", fileNo)), []byte(src.String())})
		fileNo++
		b.Reset()
	}
	chunk := 0
	for fn := 0; lines < target; fn++ {
		x, y, z := rng.Intn(9), rng.Intn(9), rng.Intn(9)
		src := fmt.Sprintf(`
func TestGen%[1]d(t *testing.T) {
	xs := []int{%[2]d, %[3]d, %[4]d}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != %[5]d {
		t.Fatalf("sum = %%d", sum)
	}
}
`, fn, x, y, z, x+y+z)
		b.WriteString(src)
		n := strings.Count(src, "\n")
		lines += n
		chunk += n
		if chunk > 300 {
			flush()
			chunk = 0
		}
	}
	if chunk > 0 {
		flush()
	}
	return files
}

// writeModule replaces dir with the module's files.
func writeModule(dir string, files []genFile) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, f := range files {
		p := filepath.Join(dir, filepath.FromSlash(f.path))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
