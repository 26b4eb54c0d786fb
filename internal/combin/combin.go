// Package combin provides the exact combinatorial arithmetic that the
// throughput analysis of topology-transparent schedules relies on: binomial
// coefficients as big integers, exact rationals built from them, and
// iterators over k-subsets.
//
// Every throughput formula in the paper (Theorems 2, 3, 4, 8) is a ratio of
// products of binomial coefficients. Floating point cannot certify the
// paper's "equality holds if and only if" claims, so all analysis-side
// computation is exact.
package combin

import (
	"fmt"
	"math/big"
)

// Binomial returns C(n, k) as a big.Int. By the usual convention it is 0
// when k < 0 or k > n, and C(n, 0) == 1 for n >= 0. Negative n panics:
// the schedules never produce it, so it always indicates a caller bug.
func Binomial(n, k int) *big.Int {
	if n < 0 {
		panic(fmt.Sprintf("combin: Binomial with negative n = %d", n))
	}
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Rat returns the exact rational a/b. It panics if b == 0.
func Rat(a, b int64) *big.Rat {
	return big.NewRat(a, b)
}

// RatFromInts returns num/den for big.Int inputs. It panics if den == 0.
func RatFromInts(num, den *big.Int) *big.Rat {
	if den.Sign() == 0 {
		panic("combin: zero denominator")
	}
	return new(big.Rat).SetFrac(num, den)
}

// Enumerator holds the reusable scratch of the subset iterators. The
// package-level Combinations and CombinationsOf allocate their index
// buffers on every call, which the exhaustive verifiers in internal/core
// pay millions of times; an Enumerator amortizes that to zero steady-state
// allocations. The zero value is ready to use; an Enumerator is not safe
// for concurrent use, and its methods must not be re-entered from their own
// callbacks.
type Enumerator struct {
	idx []int // combination indices / walk prefix, grown on demand
	buf []int // universe-mapped subset for CombinationsOf
}

// NewEnumerator returns an Enumerator. Equivalent to new(Enumerator); it
// exists so call sites read as intent rather than zero-value trivia.
func NewEnumerator() *Enumerator { return new(Enumerator) }

// scratch returns a length-k int slice backed by *store, growing the
// backing array only when k exceeds every previous request.
//
//ttdc:hotpath amortized grow-once scratch behind a cap guard; steady state reslices only
func scratch(store *[]int, k int) []int {
	if cap(*store) < k {
		*store = make([]int, k)
	}
	return (*store)[:k]
}

// Combinations is the reusable-scratch form of the package-level
// Combinations: identical order, callback contract, and return value.
func (e *Enumerator) Combinations(n, k int, fn func(subset []int) bool) int {
	if k < 0 || n < 0 {
		panic(fmt.Sprintf("combin: Combinations(%d, %d)", n, k))
	}
	if k > n {
		return 0
	}
	idx := scratch(&e.idx, k)
	for i := range idx {
		idx[i] = i
	}
	count := 0
	for {
		count++
		if !fn(idx) {
			return count
		}
		// Advance to next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return count
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// CombinationsOf is the reusable-scratch form of the package-level
// CombinationsOf.
func (e *Enumerator) CombinationsOf(universe []int, k int, fn func(subset []int) bool) int {
	buf := scratch(&e.buf, k)
	return e.Combinations(len(universe), k, func(pos []int) bool {
		for i, p := range pos {
			buf[i] = universe[p]
		}
		return fn(buf)
	})
}

// WalkControl directs WalkKSubsets at each node of the enumeration tree.
type WalkControl int

const (
	// WalkDescend continues into the node's children (for a leaf: accepts
	// it and moves on to the next subset).
	WalkDescend WalkControl = iota
	// WalkPrune skips the entire subtree below the current node — all
	// C(n-1-pos, k-depth) completions of the current prefix — and resumes
	// with the node's next sibling.
	WalkPrune
	// WalkStop aborts the whole walk immediately.
	WalkStop
)

// WalkKSubsets drives a depth-first walk over the k-subsets of {0..n-1},
// visiting full subsets in exactly the lexicographic order of Combinations.
// Unlike Combinations, the walk exposes every prefix: visit is called once
// per tree node — once for each strictly increasing sequence of elements
// that can still be completed to a k-subset — with the current prefix
// (length 1..k; a prefix of length k is a complete subset). This is the
// shape that lets callers cache per-prefix state (e.g. the running
// free-slot intersection of the topology-transparency checks) and prune
// whole subtrees: extending a prefix costs one visit instead of re-deriving
// k elements per subset.
//
// The prefix slice is reused between calls and must not be retained. The
// return value reports whether the walk ran to completion (false iff some
// visit returned WalkStop). k == 0 has a single empty subset and no
// prefixes, so visit is never called; k > n walks nothing.
//
//ttdc:hotpath drives every prefix-cached verification walk; reuses the enumerator scratch across calls
func (e *Enumerator) WalkKSubsets(n, k int, visit func(prefix []int) WalkControl) bool {
	if k < 0 || n < 0 {
		panic(fmt.Sprintf("combin: WalkKSubsets(%d, %d)", n, k))
	}
	if k == 0 || k > n {
		return true
	}
	prefix := scratch(&e.idx, k)
	return walk(prefix, n, 0, 0, visit)
}

// walk extends prefix[:depth] with every element in [start, n-(k-depth-1))
// — the positions that leave room for the remaining k-depth-1 elements —
// recursing one level per chosen element. It returns false when a visit
// requested WalkStop.
//
//ttdc:hotpath the recursive enumeration spine; per-node cost is one visit call and scalar index math
func walk(prefix []int, n, depth, start int, visit func(prefix []int) WalkControl) bool {
	k := len(prefix)
	for pos := start; pos < n-(k-depth-1); pos++ {
		prefix[depth] = pos
		switch visit(prefix[:depth+1]) {
		case WalkStop:
			return false
		case WalkPrune:
			continue
		}
		if depth+1 < k {
			if !walk(prefix, n, depth+1, pos+1, visit) {
				return false
			}
		}
	}
	return true
}

// Combinations calls fn with each k-subset of {0, ..., n-1} in
// lexicographic order. The slice passed to fn is reused between calls; the
// callback must copy it if it needs to retain it. If fn returns false,
// enumeration stops early. The number of subsets visited is returned.
//
// k == 0 yields a single empty subset. k > n yields nothing. Callers on a
// hot path should prefer an Enumerator, which reuses the index scratch
// across calls.
func Combinations(n, k int, fn func(subset []int) bool) int {
	var e Enumerator
	return e.Combinations(n, k, fn)
}

// CombinationsOf enumerates the k-subsets of the given universe slice, in
// lexicographic order of positions. As with Combinations, the slice passed
// to fn is reused, and hot paths should prefer the Enumerator form.
func CombinationsOf(universe []int, k int, fn func(subset []int) bool) int {
	var e Enumerator
	return e.CombinationsOf(universe, k, fn)
}

// ArgmaxInt returns the x in candidates maximizing f(x), breaking ties in
// favour of the earliest candidate (matching the paper's floor-first tie
// rule for the optimal transmitter count). It panics on an empty slice.
// Values of f are compared exactly as big.Int.
func ArgmaxInt(candidates []int, f func(x int) *big.Int) int {
	if len(candidates) == 0 {
		panic("combin: ArgmaxInt of empty candidate list")
	}
	best := candidates[0]
	bestV := f(best)
	for _, c := range candidates[1:] {
		if v := f(c); v.Cmp(bestV) > 0 {
			best, bestV = c, v
		}
	}
	return best
}

// CeilDiv returns ceil(a / b) for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("combin: CeilDiv with non-positive divisor %d", b))
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// FloorDiv returns floor(a / b) for positive b and non-negative a.
func FloorDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("combin: FloorDiv with non-positive divisor %d", b))
	}
	if a < 0 {
		panic(fmt.Sprintf("combin: FloorDiv with negative dividend %d", a))
	}
	return a / b
}

// Factorial returns n! as a big.Int; n must be non-negative.
func Factorial(n int) *big.Int {
	if n < 0 {
		panic(fmt.Sprintf("combin: Factorial(%d)", n))
	}
	return new(big.Int).MulRange(1, int64(n))
}

// RatFloat returns the float64 value of r (for reporting only; analysis
// comparisons must stay exact).
func RatFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}
