// Command perfbench is the repository's benchmark. It drives the three
// paths by which the paper's schedules reach users:
//
//   - ring: GET /schedule through a 3-peer in-process serving ring;
//   - campaign: two campaign documents from spec to journal;
//   - lint: the ttdclint pipeline over a module generated from the seed.
//
// ring and campaign are the workloads. Usage (from the repository root,
// through run.sh, which builds it):
//
//	bash _perfbench/run.sh --workload ring --seed 7 --seconds 50 --trace 0
//
// Every input is generated from --seed. With --trace 0 the run measures
// the named workload's end-to-end metrics with tracing off; with --trace 1
// it records spans around the benchmark's calls into each layer of all three
// paths and reports the per-layer breakdown instead. Each path checks its
// outputs; a failed check prints "correct": false and exits 1. The last
// line of standard output is the result object.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each path sees, measured with
// tracing off; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"sustained_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced breakdown of all three paths plus the tracing
// overhead of the workload named on the command line.
func perLayer() []metricDef {
	defs := append(append(append([]metricDef(nil), ringLayers...), campaignLayers...), lintLayers()...)
	return append(defs, metricDef{"trace.overhead_share", "ratio"})
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	build    string // scratch root for binaries, generated inputs, and spans
}

// result is one run's outcome: the metrics plus the output-check verdict.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	notes     []string
}

func newResult() *result { return &result{correct: true, values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// check records a failed output check unless ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "ring or campaign")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 50, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer breakdown")
	build := fs.String("build", ".bench_build", "directory for binaries, generated inputs, and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*build)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		build:    abs,
	}
	for _, dir := range []string{"work", "trace"} {
		if err := os.MkdirAll(filepath.Join(cfg.build, dir), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	installResolver()

	var res *result
	var defs []metricDef
	if *traceFlag == 1 {
		defs = perLayer()
		res, err = runTraced(cfg)
	} else {
		defs = endToEnd
		switch cfg.workload {
		case "ring":
			res, err = ringEndToEnd(cfg)
		case "campaign":
			res, err = campaignEndToEnd(cfg)
		default:
			err = fmt.Errorf("unknown workload %q (want ring or campaign)", cfg.workload)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 2
		}
		if *traceFlag == 0 && v <= 0 {
			fmt.Fprintf(stderr, "perfbench: end-to-end metric %s measured %v\n", d.name, v)
			return 2
		}
	}
	return report(stdout, stderr, cfg, res, defs)
}

// report prints the human-readable lines, then the result object as the
// last line of standard output.
func report(stdout, stderr io.Writer, cfg config, res *result, defs []metricDef) int {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "# workload=%s seed=%d nproc=%d gomaxprocs=%d cpu=%q\n",
		cfg.workload, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		metrics[d.name] = jsonMetric{res.values[d.name], d.unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, res.values[d.name], d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: output check failed:", p)
	}
	if !res.correct {
		return 1
	}
	return 0
}

// runTraced records the per-layer breakdown of all three paths, so every
// per-layer metric is measured whichever workload is named; the named
// workload also gets its tracing overhead measured against an untraced
// pass of the same work.
func runTraced(cfg config) (*result, error) {
	if cfg.workload != "ring" && cfg.workload != "campaign" {
		return nil, fmt.Errorf("unknown workload %q (want ring or campaign)", cfg.workload)
	}
	tr := newTracer()
	res := newResult()
	if err := ringTraced(cfg, tr, res, cfg.workload == "ring"); err != nil {
		return nil, fmt.Errorf("ring trace: %w", err)
	}
	if err := campaignTraced(cfg, tr, res, cfg.workload == "campaign"); err != nil {
		return nil, fmt.Errorf("campaign trace: %w", err)
	}
	if err := lintTraced(cfg, tr, res); err != nil {
		return nil, fmt.Errorf("lint trace: %w", err)
	}
	path := filepath.Join(cfg.build, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	return res, nil
}

// cpuModel reads the processor name the result records.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is this process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
