// Package experiments implements the reproduction harness: one experiment
// per paper artifact (Figure 1, Theorems 2-4 and 7-9, Requirements 1-3) plus
// the simulation studies the paper's introduction motivates. Each
// experiment regenerates a table and verifies the paper's claim; the same
// code backs cmd/ttdcsweep, the repository-level benchmarks, and
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/tablewriter"
)

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (E1..E17).
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Table holds the regenerated rows.
	Table *tablewriter.Table
	// Notes record the paper-claim-vs-measured comparison in prose.
	Notes []string
	// Pass reports whether every checked claim held.
	Pass bool
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) fail(format string, args ...interface{}) {
	r.Pass = false
	r.note("FAIL: "+format, args...)
}

type runner func() (*Result, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"E1":  {"Figure 1: sleeping preserves per-topology throughput", runE1},
	"E2":  {"Theorem 2: closed-form average throughput == brute force", runE2},
	"E3":  {"Theorem 3: general upper bound and optimal transmitter count", runE3},
	"E4":  {"Theorem 4: (αT, αR) upper bound and optimal capped count", runE4},
	"E5":  {"Theorem 7: constructed frame length", runE5},
	"E6":  {"Theorem 8: optimality ratio of the construction", runE6},
	"E7":  {"Theorem 9: minimum-throughput lower bound", runE7},
	"E8":  {"Theorem 1: Requirement 2 ⇔ Requirement 3", runE8},
	"E9":  {"Simulation vs analysis on worst-case topologies", runE9},
	"E10": {"Energy/latency/throughput trade-off of duty cycling", runE10},
	"E11": {"Topology transparency under churn; construction comparison", runE11},
	"E12": {"Worst-case hop latency bound vs simulation", runE12},
	"E13": {"Balanced-energy division ablation (§7)", runE13},
	"E14": {"Adaptive duty cycling under bursty load", runE14},
	"E15": {"Robustness: erasures, capture, clock drift", runE15},
	"E16": {"Neighbour discovery: the one-frame corollary", runE16},
	"E17": {"Frame-length optimality of Construct", runE17},
}

// IDs returns all experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// E2 < E10 numerically.
		a, b := ids[i], ids[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return ids
}

// Run executes one experiment by ID.
func Run(id string) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	res, err := e.run()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = e.title
	return res, nil
}
