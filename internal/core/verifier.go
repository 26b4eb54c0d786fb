package core

import (
	"math/big"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/combin"
)

// Verifier runs the exhaustive requirement and throughput checks on one
// schedule with prefix-cached enumeration. The naive kernels re-derive the
// free-slot set of every D-subset from scratch (one Copy plus D
// DifferenceWith per subset); the Verifier instead walks the subset tree of
// combin.WalkKSubsets keeping a stack of per-level free-slot sets, so
// extending a prefix by one node costs a single fused CopyThenDifference
// into a preallocated level buffer, and the innermost leaf loop degenerates
// to a raw word scan. A drained prefix (no free slot, or a receiver with no
// awake slot left, at depth < D) prunes its entire subtree — all
// C(remaining, D-depth) completions — while still reporting the exact
// witness the naive scan would have reported for the lexicographically
// first completion.
//
// All scratch is allocated in NewVerifier; the check methods perform no
// steady-state allocations except for the witness of an actual violation
// (and the big.Rat/big.Int results of the throughput methods). The
// differential tests in verifier_test.go pin byte-identical results —
// including first-witness order — against the *Naive references of
// naive_test.go, and alloc_test.go pins the zero-allocation guarantee.
//
// A Verifier is bound to one (schedule, D) pair, is not safe for concurrent
// use, and is cheap enough to create per goroutine — the parallel checkers
// give each worker its own.
type Verifier struct {
	s *Schedule
	d int

	enum   combin.Enumerator
	others []int // V_n - {x} (or - {x, y}), rebuilt per node/pair

	// Read-only word views of the schedule's per-node slot sets, hoisted
	// once so leaf scans touch no method calls.
	tranW [][]uint64
	recvW [][]uint64

	// free[t] is the free-slot set after t prefix extensions; free[0] is
	// the walk's base (tran(x), or tran(x) \ tran(y) for throughput scans).
	// Levels are only written when the walk visits their depth, so a
	// parent's set stays valid across all of its children.
	free  []*bitset.Set
	freeW [][]uint64
	fsSet *bitset.Set // leaf free-slot scratch (also exact-witness scratch)
	fs    []uint64
	// masks[j] = recv(y_j) ∩ free at the leaf-scan parent, hoisted so each
	// leaf tests condition (2) with one &^ word scan per prefix receiver:
	// recv ∩ (free &^ tw) == (recv ∩ free) &^ tw.
	masks [][]uint64

	// Requirement 2 state: cover[t] = ∪ tran(interferer) over the prefix,
	// σ(x, y), and rem = σ \ cover at the leaf-scan parent.
	cover  []*bitset.Set
	coverW [][]uint64
	sigma  *bitset.Set
	sigmaW []uint64
	rem    []uint64

	// Per-walk state shared with the stored visit closures.
	x, y     int
	k        int // walk subset size for Req2/throughput walks
	recvYW   []uint64
	witness  *Witness
	w2       *Req2Witness
	minSlots int
	pairSum  int64

	// One-word fast path. Frames with L <= 64 — every polynomial
	// construction up to GF(8), and the paper's own operating points —
	// fit each slot set in a single uint64, so the whole walk state lives
	// in scalars: no word loops, no slice headers, no bounds checks in
	// the innermost scans. Populated iff w1 is true.
	w1     bool
	tran1  []uint64 // tran1[x] = tranW[x][0]
	recv1  []uint64
	free1  []uint64 // scalar level stack, len d
	mask1  []uint64 // scalar receiver masks at the leaf-scan parent
	cover1 []uint64 // scalar Req2 union stack
	pfxW1  []int    // prefix scratch for the walkerless D == 2 pair scan
	sigma1 uint64
	rem1   uint64
	recvY1 uint64

	// Visit closures are bound once here; handing a method value to
	// WalkKSubsets at call time would allocate on every walk.
	visitReq1   func(prefix []int) combin.WalkControl
	visitReq3   func(prefix []int) combin.WalkControl
	visitReq2   func(prefix []int) combin.WalkControl
	visitMin    func(prefix []int) combin.WalkControl
	visitAvg    func(prefix []int) combin.WalkControl
	visitReq1W1 func(prefix []int) combin.WalkControl
	visitReq3W1 func(prefix []int) combin.WalkControl
	visitReq2W1 func(prefix []int) combin.WalkControl
	visitMinW1  func(prefix []int) combin.WalkControl
	visitAvgW1  func(prefix []int) combin.WalkControl
}

// NewVerifier allocates all scratch for checking schedule s against the
// network class N(s.N(), d).
func NewVerifier(s *Schedule, d int) *Verifier {
	validateD(s.n, d)
	L := s.L()
	v := &Verifier{s: s, d: d}
	v.others = make([]int, 0, s.n-1)
	v.tranW = make([][]uint64, s.n)
	v.recvW = make([][]uint64, s.n)
	for x := 0; x < s.n; x++ {
		v.tranW[x] = s.tran[x].Words()
		v.recvW[x] = s.recv[x].Words()
	}
	v.free = make([]*bitset.Set, d)
	v.freeW = make([][]uint64, d)
	v.cover = make([]*bitset.Set, d)
	v.coverW = make([][]uint64, d)
	for t := 0; t < d; t++ {
		v.free[t] = bitset.New(L)
		v.freeW[t] = v.free[t].Words()
		v.cover[t] = bitset.New(L)
		v.coverW[t] = v.cover[t].Words()
	}
	v.fsSet = bitset.New(L)
	v.fs = v.fsSet.Words()
	v.masks = make([][]uint64, d)
	for j := range v.masks {
		v.masks[j] = make([]uint64, len(v.fs))
	}
	v.sigma = bitset.New(L)
	v.sigmaW = v.sigma.Words()
	v.rem = make([]uint64, len(v.fs))
	if len(v.fs) == 1 {
		v.w1 = true
		v.tran1 = make([]uint64, s.n)
		v.recv1 = make([]uint64, s.n)
		for x := 0; x < s.n; x++ {
			v.tran1[x] = v.tranW[x][0]
			v.recv1[x] = v.recvW[x][0]
		}
		v.free1 = make([]uint64, d)
		v.mask1 = make([]uint64, d)
		v.cover1 = make([]uint64, d)
		v.pfxW1 = make([]int, 0, d)
	}
	v.visitReq1 = v.stepReq1
	v.visitReq3 = v.stepReq3
	v.visitReq2 = v.stepReq2
	v.visitMin = v.stepMin
	v.visitAvg = v.stepAvg
	v.visitReq1W1 = v.stepReq1W1
	v.visitReq3W1 = v.stepReq3W1
	v.visitReq2W1 = v.stepReq2W1
	v.visitMinW1 = v.stepMinW1
	v.visitAvgW1 = v.stepAvgW1
	return v
}

// buildOthers fills v.others with V_n - {x, y} in increasing order (pass
// y < 0 to exclude only x).
//
//ttdc:hotpath runs once per (x, y) pair of every check; refills preallocated scratch by self-reslice
func (v *Verifier) buildOthers(x, y int) {
	v.others = v.others[:0]
	for u := 0; u < v.s.n; u++ {
		if u != x && u != y {
			v.others = append(v.others, u)
		}
	}
}

// firstCompletion materializes the lexicographically first k-subset that
// extends prefix: the prefix values followed by the next positions in
// order. The walk's position bounds guarantee the positions exist.
func (v *Verifier) firstCompletion(prefix []int, k int) []int {
	y := make([]int, k)
	for i, p := range prefix {
		y[i] = v.others[p]
	}
	next := prefix[len(prefix)-1] + 1
	for i := len(prefix); i < k; i++ {
		y[i] = v.others[next]
		next++
	}
	return y
}

// leafSubset materializes the subset {prefix values} ∪ {others[pos]} (a nil
// prefix yields the singleton, used by the D == 1 and k == 1 scans).
func (v *Verifier) leafSubset(prefix []int, pos int) []int {
	y := make([]int, len(prefix)+1)
	for i, p := range prefix {
		y[i] = v.others[p]
	}
	y[len(prefix)] = v.others[pos]
	return y
}

// evalReq3 checks one neighbourhood yv exactly as the naive per-subset
// kernel does, returning its witness (or nil if yv satisfies Requirement 3
// for transmitter v.x). It takes ownership of yv.
func (v *Verifier) evalReq3(yv []int) *Witness {
	v.fsSet.Copy(v.s.tran[v.x])
	for _, u := range yv {
		v.fsSet.DifferenceWith(v.s.tran[u])
	}
	if v.fsSet.Empty() {
		return &Witness{X: v.x, Y: yv, K: -1}
	}
	for k, u := range yv {
		if !v.s.recv[u].Intersects(v.fsSet) {
			return &Witness{X: v.x, Y: yv, K: k}
		}
	}
	return nil
}

// prunedReq3Witness resolves the witness for a drained prefix: every
// completion violates, the walk is lexicographic and every earlier subset
// passed, so the first completion is exactly the subset the naive scan
// reports next — evaluate it exactly to reproduce the naive K as well
// (the drain proves a violation exists but not which condition the naive
// order blames first).
func (v *Verifier) prunedReq3Witness(prefix []int) *Witness {
	w := v.evalReq3(v.firstCompletion(prefix, v.d))
	if w == nil {
		panic("core: pruned Requirement 3 subtree has a satisfying completion")
	}
	return w
}

// Requirement1 is the prefix-cached CheckRequirement1 kernel.
func (v *Verifier) Requirement1() *Witness {
	for x := 0; x < v.s.n; x++ {
		if w := v.Requirement1Node(x); w != nil {
			return w
		}
	}
	return nil
}

// Requirement1Node checks Requirement 1 restricted to transmitter x.
func (v *Verifier) Requirement1Node(x int) *Witness {
	validateNode(v.s.n, x)
	v.x = x
	v.witness = nil
	v.buildOthers(x, -1)
	if v.w1 {
		if v.d == 1 {
			v.req1LeavesW1(v.tran1[x], nil, 0)
			return v.witness
		}
		v.free1[0] = v.tran1[x]
		v.enum.WalkKSubsets(len(v.others), v.d, v.visitReq1W1)
		return v.witness
	}
	if v.d == 1 {
		v.req1Leaves(v.tranW[x], nil, 0)
		return v.witness
	}
	v.free[0].Copy(v.s.tran[x])
	v.enum.WalkKSubsets(len(v.others), v.d, v.visitReq1)
	return v.witness
}

func (v *Verifier) stepReq1(prefix []int) combin.WalkControl {
	t := len(prefix)
	if v.free[t].CopyThenDifference(v.free[t-1], v.s.tran[v.others[prefix[t-1]]]) {
		// No free slot left at depth t: every completion has an empty
		// free-slot set, and Requirement 1 only tests condition (1), so
		// the first completion with K = -1 is the naive witness.
		v.witness = &Witness{X: v.x, Y: v.firstCompletion(prefix, v.d), K: -1}
		return combin.WalkStop
	}
	if t == v.d-1 {
		v.req1Leaves(v.freeW[t], prefix, prefix[t-1]+1)
		if v.witness != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

// req1Leaves scans the last enumeration level: for each candidate final
// node it tests free &^ tran(node) for emptiness in one word pass, without
// materializing the set.
func (v *Verifier) req1Leaves(fw []uint64, prefix []int, start int) {
	for pos := start; pos < len(v.others); pos++ {
		tw := v.tranW[v.others[pos]]
		any := uint64(0)
		for i, f := range fw {
			any |= f &^ tw[i]
		}
		if any == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: -1}
			return
		}
	}
}

// Requirement3 is the prefix-cached CheckRequirement3 kernel.
func (v *Verifier) Requirement3() *Witness {
	for x := 0; x < v.s.n; x++ {
		if w := v.Requirement3Node(x); w != nil {
			return w
		}
	}
	return nil
}

// Requirement3Node checks Requirement 3 restricted to transmitter x,
// returning the first violating witness in lexicographic Y order, or nil.
func (v *Verifier) Requirement3Node(x int) *Witness {
	validateNode(v.s.n, x)
	v.x = x
	v.witness = nil
	v.buildOthers(x, -1)
	if v.w1 {
		switch v.d {
		case 1:
			v.req3LeavesW1(v.tran1[x], nil, 0)
		case 2:
			v.req3PairsW1(v.tran1[x], v.pfxW1[:0], 0)
		default:
			v.free1[0] = v.tran1[x]
			v.enum.WalkKSubsets(len(v.others), v.d, v.visitReq3W1)
		}
		return v.witness
	}
	if v.d == 1 {
		v.req3Leaves(v.tranW[x], nil, 0)
		return v.witness
	}
	v.free[0].Copy(v.s.tran[x])
	v.enum.WalkKSubsets(len(v.others), v.d, v.visitReq3)
	return v.witness
}

func (v *Verifier) stepReq3(prefix []int) combin.WalkControl {
	t := len(prefix)
	if v.free[t].CopyThenDifference(v.free[t-1], v.s.tran[v.others[prefix[t-1]]]) {
		v.witness = v.prunedReq3Witness(prefix)
		return combin.WalkStop
	}
	fw := v.freeW[t]
	if t == v.d-1 {
		// Hoist the per-receiver masks recv(y_j) ∩ free for the leaf scan.
		// An empty mask means y_j can never be reached by any completion.
		for j := 0; j < t; j++ {
			rw := v.recvW[v.others[prefix[j]]]
			mj := v.masks[j]
			any := uint64(0)
			for i, f := range fw {
				m := rw[i] & f
				mj[i] = m
				any |= m
			}
			if any == 0 {
				v.witness = v.prunedReq3Witness(prefix)
				return combin.WalkStop
			}
		}
		v.req3Leaves(fw, prefix, prefix[t-1]+1)
		if v.witness != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	// Internal node: a receiver already drained here is drained in every
	// descendant (free only shrinks), so the whole subtree violates.
	for j := 0; j < t; j++ {
		rw := v.recvW[v.others[prefix[j]]]
		any := uint64(0)
		for i, f := range fw {
			any |= rw[i] & f
		}
		if any == 0 {
			v.witness = v.prunedReq3Witness(prefix)
			return combin.WalkStop
		}
	}
	return combin.WalkDescend
}

// req3Leaves scans the last enumeration level of the Requirement 3 check.
// The prefix receivers are tested through the hoisted masks (mask &^ tw ==
// recv ∩ fs); the final node's own receiver set is tested against the
// materialized fs — disjointness of tran and recv per node makes the two
// forms coincide.
func (v *Verifier) req3Leaves(fw []uint64, prefix []int, start int) {
	t := len(prefix)
	fs := v.fs
	for pos := start; pos < len(v.others); pos++ {
		node := v.others[pos]
		tw := v.tranW[node]
		any := uint64(0)
		for i, f := range fw {
			b := f &^ tw[i]
			fs[i] = b
			any |= b
		}
		if any == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: -1}
			return
		}
		for j := 0; j < t; j++ {
			mj := v.masks[j]
			hit := uint64(0)
			for i, m := range mj {
				hit |= m &^ tw[i]
			}
			if hit == 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: j}
				return
			}
		}
		rw := v.recvW[node]
		hit := uint64(0)
		for i, b := range fs {
			hit |= rw[i] & b
		}
		if hit == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: t}
			return
		}
	}
}

// Requirement2 is the prefix-cached CheckRequirement2 kernel. Since
// σ(x, y) ⊆ recv(y), covering it by ∪_i σ(y_i, y) = (∪_i tran(y_i)) ∩
// recv(y) is equivalent to covering it by ∪_i tran(y_i) alone, so the walk
// keeps a running union of interferer transmission sets per level and
// tests coverage with one fused word pass.
func (v *Verifier) Requirement2() *Req2Witness {
	n := v.s.n
	k := v.d - 1
	if k > n-2 {
		k = n - 2
	}
	v.k = k
	v.w2 = nil
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			v.x, v.y = x, y
			if v.w1 {
				v.sigma1 = v.tran1[x] & v.recv1[y]
				if k == 0 {
					// The empty interferer set covers σ(x, y) iff σ(x, y) = ∅.
					if v.sigma1 == 0 {
						v.w2 = &Req2Witness{X: x, Y: y}
						return v.w2
					}
					continue
				}
				v.buildOthers(x, y)
				if k == 1 {
					v.rem1 = v.sigma1
					v.req2LeavesW1(nil, 0)
				} else {
					v.cover1[0] = 0
					v.enum.WalkKSubsets(len(v.others), k, v.visitReq2W1)
				}
				if v.w2 != nil {
					return v.w2
				}
				continue
			}
			v.sigma.Copy(v.s.tran[x])
			v.sigma.IntersectWith(v.s.recv[y])
			if k == 0 {
				// The empty interferer set covers σ(x, y) iff σ(x, y) = ∅.
				if v.sigma.Empty() {
					v.w2 = &Req2Witness{X: x, Y: y}
					return v.w2
				}
				continue
			}
			v.buildOthers(x, y)
			if k == 1 {
				copy(v.rem, v.sigmaW)
				v.req2Leaves(nil, 0)
			} else {
				v.cover[0].Clear()
				v.enum.WalkKSubsets(len(v.others), k, v.visitReq2)
			}
			if v.w2 != nil {
				return v.w2
			}
		}
	}
	return nil
}

func (v *Verifier) stepReq2(prefix []int) combin.WalkControl {
	t := len(prefix)
	cw := v.coverW[t]
	pw := v.coverW[t-1]
	tw := v.tranW[v.others[prefix[t-1]]]
	left := uint64(0)
	for i := range cw {
		c := pw[i] | tw[i]
		cw[i] = c
		left |= v.sigmaW[i] &^ c
	}
	if left == 0 {
		// Coverage is monotone in adding interferers, so every completion
		// of a covering prefix also covers; the first completion is the
		// subset the naive lexicographic scan reports.
		v.w2 = &Req2Witness{X: v.x, Y: v.y, Interferer: v.firstCompletion(prefix, v.k)}
		return combin.WalkStop
	}
	if t == v.k-1 {
		for i := range v.rem {
			v.rem[i] = v.sigmaW[i] &^ cw[i]
		}
		v.req2Leaves(prefix, prefix[t-1]+1)
		if v.w2 != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

// req2Leaves scans the last interferer level: the final interferer covers
// σ(x, y) iff it covers rem = σ \ cover.
func (v *Verifier) req2Leaves(prefix []int, start int) {
	for pos := start; pos < len(v.others); pos++ {
		tw := v.tranW[v.others[pos]]
		left := uint64(0)
		for i, r := range v.rem {
			left |= r &^ tw[i]
		}
		if left == 0 {
			v.w2 = &Req2Witness{X: v.x, Y: v.y, Interferer: v.leafSubset(prefix, pos)}
			return
		}
	}
}

// MinThroughputSlots returns the minimum over all triples of |𝒯(x, y, S)|
// — the numerator of MinThroughput in slots.
//
//ttdc:hotpath the integer throughput scan is the all-scratch-preallocated entry point campaigns call per grid point
func (v *Verifier) MinThroughputSlots() int {
	minSlots := -1
	for x := 0; x < v.s.n; x++ {
		m := v.minThroughputNode(x)
		if minSlots < 0 || m < minSlots {
			minSlots = m
		}
		if minSlots == 0 {
			break // it cannot go lower
		}
	}
	if minSlots < 0 {
		minSlots = 0
	}
	return minSlots
}

// MinThroughput is the prefix-cached MinThroughput kernel (Definition 1).
func (v *Verifier) MinThroughput() *big.Rat {
	return big.NewRat(int64(v.MinThroughputSlots()), int64(v.s.L()))
}

// minThroughputNode returns min |𝒯(x, y, S)| over all pairs and
// completions with transmitter x, stopping early at zero.
//
//ttdc:hotpath per-transmitter throughput walk over C(n-2, D-1) subsets; all state lives in Verifier scratch
func (v *Verifier) minThroughputNode(x int) int {
	v.x = x
	v.k = v.d - 1
	v.minSlots = -1
	for y := 0; y < v.s.n; y++ {
		if y == x {
			continue
		}
		if v.k == 0 {
			// D == 1: S = ∅, so |𝒯| = |(tran(x) \ tran(y)) ∩ recv(y)|.
			c := v.s.tran[x].DifferenceIntersectionCount(v.s.tran[y], v.s.recv[y])
			if v.minSlots < 0 || c < v.minSlots {
				v.minSlots = c
			}
		} else if v.w1 {
			v.y = y
			v.recvY1 = v.recv1[y]
			v.buildOthers(x, y)
			f := v.tran1[x] &^ v.tran1[y]
			v.free1[0] = f
			if f&v.recvY1 == 0 {
				// The base already misses recv(y): every completion of
				// every S scores 0.
				v.minSlots = 0
			} else if v.k == 1 {
				v.minLeavesW1(f, 0)
			} else {
				v.enum.WalkKSubsets(len(v.others), v.k, v.visitMinW1)
			}
		} else {
			v.y = y
			v.recvYW = v.recvW[y]
			v.buildOthers(x, y)
			empty := v.free[0].CopyThenDifference(v.s.tran[x], v.s.tran[y])
			if empty || !v.free[0].Intersects(v.s.recv[y]) {
				// The base already misses recv(y): every completion of
				// every S scores 0.
				v.minSlots = 0
			} else if v.k == 1 {
				v.minLeaves(v.freeW[0], 0)
			} else {
				v.enum.WalkKSubsets(len(v.others), v.k, v.visitMin)
			}
		}
		if v.minSlots == 0 {
			break
		}
	}
	if v.minSlots < 0 {
		v.minSlots = 0
	}
	return v.minSlots
}

//ttdc:hotpath visited once per enumeration-tree node of the min-throughput walk
func (v *Verifier) stepMin(prefix []int) combin.WalkControl {
	t := len(prefix)
	fw := v.freeW[t]
	pw := v.freeW[t-1]
	tw := v.tranW[v.others[prefix[t-1]]]
	ry := v.recvYW
	live := uint64(0)
	for i := range fw {
		f := pw[i] &^ tw[i]
		fw[i] = f
		live |= f & ry[i]
	}
	if live == 0 {
		// free ∩ recv(y) is already empty, so every completion scores 0 —
		// the global floor; no need to visit anything else.
		v.minSlots = 0
		return combin.WalkStop
	}
	if t == v.k-1 {
		v.minLeaves(fw, prefix[t-1]+1)
		if v.minSlots == 0 {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

// minLeaves folds the last enumeration level into a popcount scan:
// |𝒯(x, y, S)| = |free &^ tran(last) & recv(y)| per candidate last node.
//
//ttdc:hotpath the innermost leaf row of the min-throughput walk, a pure popcount scan
func (v *Verifier) minLeaves(fw []uint64, start int) {
	ry := v.recvYW
	for pos := start; pos < len(v.others); pos++ {
		tw := v.tranW[v.others[pos]]
		c := 0
		for i, f := range fw {
			c += bits.OnesCount64(f &^ tw[i] & ry[i])
		}
		if v.minSlots < 0 || c < v.minSlots {
			v.minSlots = c
			if c == 0 {
				return
			}
		}
	}
}

//ttdc:hotpath visited once per enumeration-tree node of the average-throughput sum
func (v *Verifier) stepAvg(prefix []int) combin.WalkControl {
	t := len(prefix)
	fw := v.freeW[t]
	pw := v.freeW[t-1]
	tw := v.tranW[v.others[prefix[t-1]]]
	ry := v.recvYW
	live := uint64(0)
	for i := range fw {
		f := pw[i] &^ tw[i]
		fw[i] = f
		live |= f & ry[i]
	}
	if live == 0 {
		return combin.WalkPrune // every completion contributes 0 to the sum
	}
	if t == v.k-1 {
		v.avgLeaves(fw, prefix[t-1]+1)
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

//ttdc:hotpath the innermost leaf row of the average-throughput sum
func (v *Verifier) avgLeaves(fw []uint64, start int) {
	ry := v.recvYW
	for pos := start; pos < len(v.others); pos++ {
		tw := v.tranW[v.others[pos]]
		c := 0
		for i, f := range fw {
			c += bits.OnesCount64(f &^ tw[i] & ry[i])
		}
		v.pairSum += int64(c)
	}
}

// avgThroughputNumerator computes F = Σ_{x≠y} Σ_S |𝒯(x, y, S)|. Per-pair
// sums are bounded by C(n-2, D-1)·L, far inside int64 at any size the
// brute-force scan can finish, and flushed into the big.Int total per pair.
func (v *Verifier) avgThroughputNumerator() *big.Int {
	total := new(big.Int)
	tmp := new(big.Int)
	v.k = v.d - 1
	for x := 0; x < v.s.n; x++ {
		v.x = x
		for y := 0; y < v.s.n; y++ {
			if y == x {
				continue
			}
			v.pairSum = 0
			if v.k == 0 {
				v.pairSum = int64(v.s.tran[x].DifferenceIntersectionCount(v.s.tran[y], v.s.recv[y]))
			} else if v.w1 {
				v.y = y
				v.recvY1 = v.recv1[y]
				v.buildOthers(x, y)
				f := v.tran1[x] &^ v.tran1[y]
				v.free1[0] = f
				if f&v.recvY1 != 0 {
					if v.k == 1 {
						v.avgLeavesW1(f, 0)
					} else {
						v.enum.WalkKSubsets(len(v.others), v.k, v.visitAvgW1)
					}
				}
			} else {
				v.y = y
				v.recvYW = v.recvW[y]
				v.buildOthers(x, y)
				empty := v.free[0].CopyThenDifference(v.s.tran[x], v.s.tran[y])
				if !empty && v.free[0].Intersects(v.s.recv[y]) {
					if v.k == 1 {
						v.avgLeaves(v.freeW[0], 0)
					} else {
						v.enum.WalkKSubsets(len(v.others), v.k, v.visitAvg)
					}
				}
			}
			if v.pairSum != 0 {
				tmp.SetInt64(v.pairSum)
				total.Add(total, tmp)
			}
		}
	}
	return total
}

// AvgThroughputBruteForce is the prefix-cached AvgThroughputBruteForce
// kernel (Definition 2).
func (v *Verifier) AvgThroughputBruteForce() *big.Rat {
	num := v.avgThroughputNumerator()
	den := new(big.Int).Mul(big.NewInt(int64(v.s.n)), big.NewInt(int64(v.s.n-1)))
	den.Mul(den, combin.Binomial(v.s.n-2, v.d-1))
	den.Mul(den, big.NewInt(int64(v.s.L())))
	return combin.RatFromInts(num, den)
}

// ---- One-word scalar kernels ------------------------------------------
//
// Mirrors of the word-slice kernels above for frames with L <= 64. Each
// set is a single uint64, so the level stack, the receiver masks, and the
// leaf scans compile down to register arithmetic. The differential tests
// cover both layers (L spans the one-word boundary); any change here must
// be mirrored in the general kernels and vice versa.

func (v *Verifier) stepReq1W1(prefix []int) combin.WalkControl {
	t := len(prefix)
	f := v.free1[t-1] &^ v.tran1[v.others[prefix[t-1]]]
	v.free1[t] = f
	if f == 0 {
		v.witness = &Witness{X: v.x, Y: v.firstCompletion(prefix, v.d), K: -1}
		return combin.WalkStop
	}
	if t == v.d-1 {
		v.req1LeavesW1(f, prefix, prefix[t-1]+1)
		if v.witness != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

func (v *Verifier) req1LeavesW1(f uint64, prefix []int, start int) {
	for pos := start; pos < len(v.others); pos++ {
		if f&^v.tran1[v.others[pos]] == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: -1}
			return
		}
	}
}

// stepReq3W1 handles the walk's internal levels; the last two levels are
// fused into req3PairsW1, so the walker's per-visit dispatch amortizes
// over a whole C(remaining, 2) block of leaves instead of one row.
func (v *Verifier) stepReq3W1(prefix []int) combin.WalkControl {
	t := len(prefix)
	f := v.free1[t-1] &^ v.tran1[v.others[prefix[t-1]]]
	v.free1[t] = f
	if f == 0 {
		v.witness = v.prunedReq3Witness(prefix)
		return combin.WalkStop
	}
	for j := 0; j < t; j++ {
		if v.recv1[v.others[prefix[j]]]&f == 0 {
			v.witness = v.prunedReq3Witness(prefix)
			return combin.WalkStop
		}
	}
	if t == v.d-2 {
		v.req3PairsW1(f, prefix, prefix[t-1]+1)
		if v.witness != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

// req3PairsW1 scans the last two enumeration levels of the Requirement 3
// check in one nested scalar loop: the outer level computes fp = f minus
// the penultimate node and hoists the receiver masks against fp; the inner
// level is the leaf row. prefix has length D-2 (possibly zero for D == 2)
// and must have capacity for one extra element.
func (v *Verifier) req3PairsW1(f uint64, prefix []int, start int) {
	t := len(prefix)
	others := v.others
	tran1 := v.tran1
	recv1 := v.recv1
	ms := v.mask1
	for p := start; p < len(others)-1; p++ {
		nodeP := others[p]
		fp := f &^ tran1[nodeP]
		ext := prefix[:t+1]
		ext[t] = p
		if fp == 0 {
			v.witness = v.prunedReq3Witness(ext)
			return
		}
		drained := false
		for j := 0; j < t; j++ {
			m := recv1[others[prefix[j]]] & fp
			ms[j] = m
			if m == 0 {
				drained = true
				break
			}
		}
		mp := recv1[nodeP] & fp
		if drained || mp == 0 {
			v.witness = v.prunedReq3Witness(ext)
			return
		}
		for q := p + 1; q < len(others); q++ {
			nodeQ := others[q]
			tw := tran1[nodeQ]
			b := fp &^ tw
			if b == 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(ext, q), K: -1}
				return
			}
			bad := -1
			for j := 0; j < t; j++ {
				if ms[j]&^tw == 0 {
					bad = j
					break
				}
			}
			if bad >= 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(ext, q), K: bad}
				return
			}
			if mp&^tw == 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(ext, q), K: t}
				return
			}
			if recv1[nodeQ]&b == 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(ext, q), K: t + 1}
				return
			}
		}
	}
}

func (v *Verifier) req3LeavesW1(f uint64, prefix []int, start int) {
	t := len(prefix)
	ms := v.mask1[:t]
	others := v.others
	tran1 := v.tran1
	recv1 := v.recv1
	for pos := start; pos < len(others); pos++ {
		node := others[pos]
		tw := tran1[node]
		b := f &^ tw
		if b == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: -1}
			return
		}
		for j, m := range ms {
			if m&^tw == 0 {
				v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: j}
				return
			}
		}
		if recv1[node]&b == 0 {
			v.witness = &Witness{X: v.x, Y: v.leafSubset(prefix, pos), K: t}
			return
		}
	}
}

func (v *Verifier) stepReq2W1(prefix []int) combin.WalkControl {
	t := len(prefix)
	c := v.cover1[t-1] | v.tran1[v.others[prefix[t-1]]]
	v.cover1[t] = c
	if v.sigma1&^c == 0 {
		v.w2 = &Req2Witness{X: v.x, Y: v.y, Interferer: v.firstCompletion(prefix, v.k)}
		return combin.WalkStop
	}
	if t == v.k-1 {
		v.rem1 = v.sigma1 &^ c
		v.req2LeavesW1(prefix, prefix[t-1]+1)
		if v.w2 != nil {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

func (v *Verifier) req2LeavesW1(prefix []int, start int) {
	for pos := start; pos < len(v.others); pos++ {
		if v.rem1&^v.tran1[v.others[pos]] == 0 {
			v.w2 = &Req2Witness{X: v.x, Y: v.y, Interferer: v.leafSubset(prefix, pos)}
			return
		}
	}
}

//ttdc:hotpath one-word scalar mirror of stepMin
func (v *Verifier) stepMinW1(prefix []int) combin.WalkControl {
	t := len(prefix)
	f := v.free1[t-1] &^ v.tran1[v.others[prefix[t-1]]]
	v.free1[t] = f
	if f&v.recvY1 == 0 {
		v.minSlots = 0
		return combin.WalkStop
	}
	if t == v.k-1 {
		v.minLeavesW1(f, prefix[t-1]+1)
		if v.minSlots == 0 {
			return combin.WalkStop
		}
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

//ttdc:hotpath one-word scalar mirror of minLeaves
func (v *Verifier) minLeavesW1(f uint64, start int) {
	fr := f & v.recvY1
	for pos := start; pos < len(v.others); pos++ {
		c := bits.OnesCount64(fr &^ v.tran1[v.others[pos]])
		if v.minSlots < 0 || c < v.minSlots {
			v.minSlots = c
			if c == 0 {
				return
			}
		}
	}
}

//ttdc:hotpath one-word scalar mirror of stepAvg
func (v *Verifier) stepAvgW1(prefix []int) combin.WalkControl {
	t := len(prefix)
	f := v.free1[t-1] &^ v.tran1[v.others[prefix[t-1]]]
	v.free1[t] = f
	if f&v.recvY1 == 0 {
		return combin.WalkPrune
	}
	if t == v.k-1 {
		v.avgLeavesW1(f, prefix[t-1]+1)
		return combin.WalkPrune
	}
	return combin.WalkDescend
}

//ttdc:hotpath one-word scalar mirror of avgLeaves
func (v *Verifier) avgLeavesW1(f uint64, start int) {
	fr := f & v.recvY1
	sum := v.pairSum
	for pos := start; pos < len(v.others); pos++ {
		sum += int64(bits.OnesCount64(fr &^ v.tran1[v.others[pos]]))
	}
	v.pairSum = sum
}
