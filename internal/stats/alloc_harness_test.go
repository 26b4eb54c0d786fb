//go:build !race

// The race detector instruments memory operations in ways that can
// allocate, so the allocation gates only run in the plain test pass.

package stats

import (
	"math"
	"testing"
)

// gateSinkCount keeps the measured calls from being optimized away
// without allocating inside the measured closures.
var gateSinkCount int

// allocGateHarness binds one warm call per symbol listed in the generated
// alloc_gate_test.go. The scan runs at the campaign's default arrival
// probability over a 400-draw span, so it takes both the four-per-step
// loop and the one-at-a-time tail, and usually stops at an arrival.
func allocGateHarness(t *testing.T, sym string) func() {
	t.Helper()
	r := NewRNG(5)
	threshold := uint64(math.Ldexp(math.Exp(-0.002), 53))<<11 | 0x7FF
	switch sym {
	case "(*repro/internal/stats.RNG).ScanAbove":
		return func() {
			skipped, _ := r.ScanAbove(399, threshold)
			gateSinkCount += skipped
		}
	}
	t.Fatalf("no alloc-gate harness for %s; add one in alloc_harness_test.go", sym)
	return nil
}
