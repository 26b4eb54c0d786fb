// Code generated by ttdclint -write-alloc-gates; DO NOT EDIT.

//go:build !race

package bitset

import "testing"

// allocGateEntries lists every exported //ttdc:hotpath function in
// this package, in symbol order, as inventoried by ttdclint -hotpaths.
var allocGateEntries = []string{
	"(*repro/internal/bitset.Set).Contains",                    // membership probe on the simulator slot loops; one shift and one AND
	"(*repro/internal/bitset.Set).CopyThenDifference",          // one fused word pass per prefix extension of every verification walk
	"(*repro/internal/bitset.Set).CountDisjoint",               // one fused pass per slot of every schedule built; two popcounts and an AND per word
	"(*repro/internal/bitset.Set).DifferenceIntersectionCount", // the D == 1 throughput cardinality, one fused popcount pass per pair
	"(*repro/internal/bitset.Set).DifferenceWith",              // in-place set difference; the naive kernels pay it D times per subset
	"(*repro/internal/bitset.Set).IntersectWith",               // in-place set intersection on the verification walks
	"(*repro/internal/bitset.Set).IntersectionCount",           // popcount reduction on the throughput scans
	"(*repro/internal/bitset.Set).Intersects",                  // condition-(2) probe of the requirement checks; short-circuiting word scan
	"(*repro/internal/bitset.Set).Select",                      // Construct finds both ends of every Sequential run by rank; a popcount per word
	"(*repro/internal/bitset.Set).UnionWith",                   // in-place set union on the verification walks; word loop over existing backing arrays
	"repro/internal/bitset.TransposeWindow",                    // the simulator kernels transpose their slot sets one 64-slot window at a time
}

// TestHotpathAllocGates closes the static/dynamic gap for the
// //ttdc:hotpath contract: after one warm-up call (pools primed,
// scratch grown), every annotated exported entry point must run with
// zero heap allocations. The per-symbol harness lives in
// alloc_harness_test.go.
func TestHotpathAllocGates(t *testing.T) {
	for _, sym := range allocGateEntries {
		t.Run(sym, func(t *testing.T) {
			fn := allocGateHarness(t, sym)
			fn() // warm: prime pools and grow scratch outside the measurement
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Errorf("AllocsPerRun(%s) = %v, want 0", sym, n)
			}
		})
	}
}
