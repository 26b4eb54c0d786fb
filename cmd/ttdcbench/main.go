// Command ttdcbench turns `go test -bench -benchmem` output into the
// machine-readable benchmark files that track the repository's perf
// trajectory (BENCH_engine.json, BENCH_core.json, BENCH_sim.json and
// BENCH_lint.json). It parses the standard benchmark lines from stdin,
// and derives speedup pairs from four naming conventions:
//
//   - <Prefix>Workers1 / <Prefix>WorkersMax — the engine's serial-vs-
//     parallel sweep and campaign wall-clock comparison;
//   - <Prefix>Naive / <Prefix>Prefix — the old-vs-new kernel comparison
//     of internal/core's prefix-cached verification rewrite;
//   - <Prefix>Legacy / <Prefix>Fast — the sim reference loop vs the
//     struct-of-arrays kernels, the saturation window's Go loop vs its
//     AVX-512 passes, and bitset's Go transpose vs its AVX-512 block
//     kernel;
//   - <Prefix>Shards1 / <Prefix>ShardsMax — the sequential kernel vs the
//     sharded slot kernel at one shard per CPU.
//
// The Workers and Shards pairs are parallelism measurements: when both
// sides of one ran under GOMAXPROCS=1 (no -N name suffix), the derived
// entry is marked "single_core": true so the ratio is read as sharding
// overhead rather than parallel speedup.
//
// Custom b.ReportMetric units (peakRSS-MB, gomaxprocs, numcpu from the
// TTDC_SCALE benchmarks) land in each benchmark's "extra" map. -merge folds
// a run into an existing file instead of replacing it, so the scale entries
// coexist with the standard ones.
//
// Repeated lines of one benchmark (`go test -count N`) fold into one
// entry: every column is the median of its runs, the entry keeps the
// fastest and slowest ns/op and the run count as its noise bound, and the
// speedup pairs are derived from the medians.
//
// Usage (see the Makefile bench and bench-scale targets):
//
//	go test -run xxx -bench . -benchmem -count 5 ./internal/engine | ttdcbench -o BENCH_engine.json
//	go test -run xxx -bench . -benchmem -count 5 ./internal/sim ./internal/bitset | ttdcbench -merge -o BENCH_sim.json
//	TTDC_SCALE=1 go test -run xxx -bench Scale -benchtime 1x ./internal/sim | ttdcbench -merge -o BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: one parsed line, or the fold of
// its repeated lines.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// Runs is how many result lines the benchmark had; NsPerOp and the
	// other columns are then their medians, and MinNsPerOp and MaxNsPerOp
	// the fastest and slowest run. Zero only in documents written before
	// these fields existed, where the one run's spread is unknown.
	Runs       int     `json:"runs,omitempty"`
	MinNsPerOp float64 `json:"minNsPerOp,omitempty"`
	MaxNsPerOp float64 `json:"maxNsPerOp,omitempty"`
	// Extra holds custom b.ReportMetric units the line carried beyond the
	// standard three — the scale benchmarks report "peakRSS-MB",
	// "gomaxprocs", and "numcpu" so a number taken on an affinity-pinned
	// host explains itself.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Procs is the GOMAXPROCS the line ran under, recovered from the -N
	// name suffix (absent suffix means 1). Zero only in documents written
	// before this field existed, where it is unknown.
	Procs int `json:"procs,omitempty"`
}

// Speedup is one derived before/after wall-clock ratio: Workers1 vs
// WorkersMax for the engine pairs, Naive vs Prefix for the kernel pairs.
// SerialNs holds the baseline (serial or naive) and MaxNs the comparison
// (parallel or prefix-cached); Speedup = SerialNs / MaxNs.
type Speedup struct {
	Name     string  `json:"name"`
	SerialNs float64 `json:"serialNs"`
	MaxNs    float64 `json:"maxNs"`
	Speedup  float64 `json:"speedup"`
	// SingleCore marks a parallelism pair (Workers or Shards) whose two
	// sides both ran under GOMAXPROCS=1: the ratio then measures sharding
	// overhead, not parallel speedup, and a dashboard should not read it
	// as a scaling number. Algorithmic pairs (Naive/Prefix, Legacy/Fast)
	// are never marked — their ratios are meaningful on one core.
	SingleCore bool `json:"single_core,omitempty"`
}

// File is the BENCH_engine.json document.
type File struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"numCPU"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (empty = stdout)")
	merge := fs.Bool("merge", false, "merge into an existing -o file instead of replacing it (same-name benchmarks are updated, others kept)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (is -bench running?)")
	}
	if *merge && *out != "" {
		if err := mergeExisting(doc, *out); err != nil {
			return err
		}
	}
	payload, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if *out == "" {
		_, err = stdout.Write(payload)
		return err
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ttdcbench: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	return nil
}

// mergeExisting folds the benchmarks already recorded in path into doc:
// entries the new run re-measured are replaced, everything else is kept in
// its original order ahead of the new names, and the speedup pairs are
// re-derived over the union. This is how `make bench-scale` adds the
// TTDC_SCALE entries to BENCH_sim.json without clobbering the standard
// `make bench` results. A missing file is not an error — merge into nothing
// is a plain write.
func mergeExisting(doc *File, path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var prev File
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("merge %s: %w", path, err)
	}
	fresh := make(map[string]Benchmark, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		fresh[b.Name] = b
	}
	merged := make([]Benchmark, 0, len(prev.Benchmarks)+len(doc.Benchmarks))
	for _, b := range prev.Benchmarks {
		if nb, ok := fresh[b.Name]; ok {
			merged = append(merged, nb)
			delete(fresh, b.Name)
		} else {
			merged = append(merged, b)
		}
	}
	for _, b := range doc.Benchmarks {
		if _, ok := fresh[b.Name]; ok {
			merged = append(merged, b)
		}
	}
	doc.Benchmarks = merged
	doc.Speedups = deriveSpeedups(merged)
	return nil
}

func parse(r io.Reader) (*File, error) {
	doc := &File{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Benchmarks = foldRuns(doc.Benchmarks)
	doc.Speedups = deriveSpeedups(doc.Benchmarks)
	return doc, nil
}

// foldRuns merges the lines of each benchmark name into one entry, in
// first-seen order. Every numeric column becomes the median of its runs
// (the mean of the middle two for an even count); the fastest and
// slowest ns/op and the run count are kept beside it.
func foldRuns(lines []Benchmark) []Benchmark {
	var order []string
	runs := make(map[string][]Benchmark)
	for _, b := range lines {
		if _, ok := runs[b.Name]; !ok {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		col := func(field func(Benchmark) float64) float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = field(r)
			}
			return median(vs)
		}
		b := Benchmark{
			Name:        name,
			Iterations:  int64(col(func(r Benchmark) float64 { return float64(r.Iterations) })),
			NsPerOp:     col(func(r Benchmark) float64 { return r.NsPerOp }),
			BytesPerOp:  col(func(r Benchmark) float64 { return r.BytesPerOp }),
			AllocsPerOp: col(func(r Benchmark) float64 { return r.AllocsPerOp }),
			Runs:        len(rs),
			MinNsPerOp:  rs[0].NsPerOp,
			MaxNsPerOp:  rs[0].NsPerOp,
			Procs:       rs[0].Procs,
		}
		for _, r := range rs {
			b.MinNsPerOp = min(b.MinNsPerOp, r.NsPerOp)
			b.MaxNsPerOp = max(b.MaxNsPerOp, r.NsPerOp)
		}
		for unit := range rs[0].Extra {
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = col(func(r Benchmark) float64 { return r.Extra[unit] })
		}
		out = append(out, b)
	}
	return out
}

// median returns the middle value of vs, or the mean of the middle two
// for an even count. It sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkSweepWorkers1-8   3   423707670 ns/op   25939616 B/op   743498 allocs/op
//
// The -N GOMAXPROCS suffix (absent on single-proc runs) is stripped.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns, Procs: procs}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}

// speedupPairs lists the recognized baseline/comparison suffix pairs.
// parallel marks the pairs whose comparison side needs more than one core
// to mean anything; only those get the single_core flag.
var speedupPairs = []struct {
	base, comp string
	parallel   bool
}{
	{"Workers1", "WorkersMax", true}, // engine serial vs worker pool
	{"Naive", "Prefix", false},       // core naive scan vs prefix-cached kernel
	{"Legacy", "Fast", false},        // sim reference loop vs struct-of-arrays path; Go vs AVX-512 transpose
	{"Shards1", "ShardsMax", true},   // sim sequential kernel vs sharded slot kernel
}

// deriveSpeedups pairs benchmarks whose names differ only by a recognized
// baseline/comparison suffix and records their wall-clock ratios,
// preserving input order.
func deriveSpeedups(benches []Benchmark) []Speedup {
	var out []Speedup
	for _, b := range benches {
		for _, p := range speedupPairs {
			prefix, ok := strings.CutSuffix(b.Name, p.base)
			if !ok {
				continue
			}
			for _, m := range benches {
				if m.Name == prefix+p.comp && m.NsPerOp > 0 {
					out = append(out, Speedup{
						Name:     strings.TrimPrefix(prefix, "Benchmark"),
						SerialNs: b.NsPerOp,
						MaxNs:    m.NsPerOp,
						Speedup:  b.NsPerOp / m.NsPerOp,
						// Procs == 0 means a pre-procs document, where the
						// host core count is unknown; leave it unmarked.
						SingleCore: p.parallel && b.Procs == 1 && m.Procs == 1,
					})
				}
			}
		}
	}
	return out
}
