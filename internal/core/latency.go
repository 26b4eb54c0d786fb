package core

import (
	"repro/internal/bitset"
	"repro/internal/combin"
)

// Latency analysis. The abstract promises "bounding packet latency in the
// presence of collisions": topology transparency gives every link at least
// one guaranteed collision-free slot per frame, so the wait for such a slot
// is bounded by the largest cyclic gap between guaranteed slots. These
// functions compute that bound exactly.

// maxCyclicGap returns the largest number of slots a packet arriving at an
// arbitrary slot may wait until the next slot in set, treating the frame of
// length l as cyclic. A packet arriving in a guaranteed slot waits 0; with
// a single guaranteed slot the worst wait is l-1. Returns -1 for an empty
// set (no guaranteed slot ever — the link can starve).
func maxCyclicGap(set *bitset.Set, l int) int {
	elems := set.Elements()
	if len(elems) == 0 {
		return -1
	}
	maxGap := 0
	for i := 0; i < len(elems); i++ {
		var gap int
		if i == 0 {
			gap = elems[0] + l - elems[len(elems)-1]
		} else {
			gap = elems[i] - elems[i-1]
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	// A packet arriving immediately after slot g_i waits until g_{i+1}:
	// gap-1 full slots pass, then it transmits; the wait in slots is gap-1.
	return maxGap - 1
}

// HopLatencyBound returns the worst-case wait, in slots, for a guaranteed
// collision-free transmission opportunity from x to y when y's other
// neighbours are exactly S — the largest cyclic gap between the slots of
// 𝒯(x, y, S). It returns -1 when no guaranteed slot exists (the schedule
// is not topology-transparent for a class containing this neighbourhood).
func HopLatencyBound(s *Schedule, x, y int, set []int) int {
	return maxCyclicGap(s.TSlots(x, y, set), s.L())
}

// WorstCaseHopLatency returns the worst-case wait, in slots, for a
// guaranteed collision-free slot on any link with any neighbourhood in
// N(n, D): the maximum of HopLatencyBound over all (x, y, S) with
// |S| = D-1. The second result is false when some link has no guaranteed
// slot at all (the schedule is not topology-transparent), in which case no
// finite bound exists.
//
// For topology-transparent schedules the bound is always at most L-1:
// every link has at least one guaranteed slot per frame, and that slot
// recurs with period L.
func WorstCaseHopLatency(s *Schedule, d int) (int, bool) {
	validateD(s.n, d)
	worst := 0
	ok := true
	forEachTriple(s, d, func(x, y int, set []int) bool {
		g := HopLatencyBound(s, x, y, set)
		if g < 0 {
			ok = false
			return false
		}
		if g > worst {
			worst = g
		}
		return true
	})
	if !ok {
		return -1, false
	}
	return worst, true
}

// forEachTriple enumerates all ordered pairs x ≠ y and all (D-1)-subsets S
// of V_n - {x, y}, invoking fn; returning false stops enumeration.
func forEachTriple(s *Schedule, d int, fn func(x, y int, set []int) bool) {
	others := make([]int, 0, s.n-2)
	stop := false
	for x := 0; x < s.n && !stop; x++ {
		for y := 0; y < s.n && !stop; y++ {
			if y == x {
				continue
			}
			others = others[:0]
			for v := 0; v < s.n; v++ {
				if v != x && v != y {
					others = append(others, v)
				}
			}
			combin.CombinationsOf(others, d-1, func(set []int) bool {
				if !fn(x, y, set) {
					stop = true
					return false
				}
				return true
			})
		}
	}
}
