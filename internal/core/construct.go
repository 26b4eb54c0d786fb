package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/combin"
)

// DivisionStrategy selects how lines 3-4 of the Figure 2 algorithm divide a
// slot's transmitter set T[i] and complement V_n - T[i] into fixed-size
// (possibly overlapping) subsets. The paper notes the division is not
// unique and does not affect correctness, frame length, or average
// worst-case throughput (Theorems 6-8); it does affect per-node energy
// balance (§7, closing remark).
type DivisionStrategy int

const (
	// Sequential divides a slot's elements, in increasing order, into runs
	// of consecutive elements; the final run, when short, is extended
	// backwards to reach the required size (so runs may overlap). Simple
	// and deterministic.
	Sequential DivisionStrategy = iota
	// Balanced deals elements round-robin and fills each subset to the
	// required size with the globally least-scheduled nodes, tracking
	// per-node transmit and receive occurrence counts across the whole
	// construction. This implements the §7 balanced-energy division: when
	// the input schedule is balanced, per-node activity in the output stays
	// uniform up to the unavoidable rounding remainder.
	Balanced
)

func (d DivisionStrategy) String() string {
	switch d {
	case Sequential:
		return "sequential"
	case Balanced:
		return "balanced"
	default:
		return fmt.Sprintf("DivisionStrategy(%d)", int(d))
	}
}

// ConstructOptions parameterizes Construct.
type ConstructOptions struct {
	// AlphaT and AlphaR are the per-slot caps of the target
	// (αT, αR)-schedule. Both must be >= 1 and AlphaT + AlphaR <= n.
	AlphaT, AlphaR int
	// Strategy selects the subset-division rule (default Sequential).
	Strategy DivisionStrategy
	// UseExactAlphaT skips the Theorem 4 optimization and uses AlphaT
	// itself as the per-slot transmitter subset size. This implements the
	// remark after Theorem 6: when every |T[i]| >= AlphaT, the result has
	// exactly AlphaT transmitters and exactly AlphaR receivers per slot.
	// When false (the default), the algorithm's main program first computes
	// αT★ = min{AlphaT, α} per Theorem 4 and targets that.
	UseExactAlphaT bool
	// D is the degree bound of the target network class N(n, D); used only
	// to compute αT★ (ignored when UseExactAlphaT is set).
	D int
}

// Construct implements the Figure 2 algorithm: given a topology-transparent
// non-sleeping schedule ⟨T⟩ for N(n, D), it builds an (αT, αR)-schedule
// that is topology-transparent for N(n, D) (Theorem 6), with frame length
// given by Theorem 7, average worst-case throughput bounded below by
// Theorem 8 (optimal when min_i |T[i]| >= αT★), and minimum throughput
// bounded below by Theorem 9.
//
// The input must be non-sleeping. Topology-transparency of the input is the
// caller's responsibility (verify with CheckRequirement1 or construct from
// a cover-free family); Construct preserves it but cannot create it.
func Construct(ns *Schedule, opts ConstructOptions) (*Schedule, error) {
	n := ns.n
	if !ns.IsNonSleeping() {
		return nil, fmt.Errorf("core: Construct requires a non-sleeping schedule")
	}
	if opts.AlphaT < 1 || opts.AlphaR < 1 {
		return nil, fmt.Errorf("core: Construct requires αT, αR >= 1 (got %d, %d)", opts.AlphaT, opts.AlphaR)
	}
	if opts.AlphaT+opts.AlphaR > n {
		return nil, fmt.Errorf("core: Construct requires αT + αR <= n (got %d + %d > %d)",
			opts.AlphaT, opts.AlphaR, n)
	}
	sizeT := opts.AlphaT
	if !opts.UseExactAlphaT {
		if opts.D < 1 || opts.D > n-1 {
			return nil, fmt.Errorf("core: Construct requires D in [1, n-1] (got %d)", opts.D)
		}
		sizeT = OptimalTransmittersCapped(n, opts.D, opts.AlphaT)
	}

	var bal *balancer
	if opts.Strategy == Balanced {
		bal = &balancer{txUse: make([]int, n), rxUse: make([]int, n)}
	}
	// Theorem 7's closed-form frame length sizes the output slot lists.
	frame := ConstructedFrameLength(ns, sizeT, opts.AlphaR)
	outT := make([]*bitset.Set, 0, frame)
	outR := make([]*bitset.Set, 0, frame)
	var tSets, rSets []*bitset.Set // reused: a slot's subsets are built before the next slot
	for i := 0; i < ns.L(); i++ {
		t, r := ns.t[i], ns.r[i] // r == V_n - t for non-sleeping input
		mT, mR := t.Count(), r.Count()
		if mT == 0 {
			// A slot nobody transmits in contributes nothing; Figure 2's
			// loop would emit k_T = 0 subsets. Skip it.
			continue
		}
		// Each subset becomes one set shared by all k_T·k_R output slots
		// it appears in. Receiver subsets are short of αR exactly when
		// |R[i]| < αR; each is then copied per transmitter subset and
		// padded (line 8), because its padding depends on that subset.
		short := mR < opts.AlphaR
		if bal != nil {
			tSets = bal.subsets(tSets[:0], t, sizeT, bal.txUse)
			rSets = bal.subsets(rSets[:0], r, opts.AlphaR, bal.rxUse)
		} else {
			tSets = appendRuns(tSets[:0], t, mT, sizeT)
			rSets = appendRuns(rSets[:0], r, mR, opts.AlphaR)
		}
		for _, tSet := range tSets {
			for _, rSet := range rSets {
				if short {
					rSet = rSet.Clone()
					if bal != nil {
						bal.pad(rSet, tSet, opts.AlphaR)
					} else {
						padSmallest(rSet, tSet, opts.AlphaR)
					}
				}
				outT = append(outT, tSet)
				outR = append(outR, rSet)
			}
		}
	}
	if len(outT) == 0 {
		return nil, fmt.Errorf("core: Construct produced an empty schedule (no slot has transmitters)")
	}
	out, err := fromOwnedSets(n, outT, outR)
	if err != nil {
		return nil, fmt.Errorf("core: Construct internal error: %w", err)
	}
	return out, nil
}

// appendRuns appends the Sequential division (lines 3-4 of Figure 2) of
// slot, which has m elements, to dst: k = ⌈m/size⌉ runs of min(size, m)
// consecutive elements, the last pulled back to end at rank m-1, so it
// may overlap its predecessor. Select finds each run's first and last
// element by rank, and the run's set is slot's window between them.
func appendRuns(dst []*bitset.Set, slot *bitset.Set, m, size int) []*bitset.Set {
	if m == 0 {
		return dst
	}
	size = min(size, m)
	for j := 0; j < combin.CeilDiv(m, size); j++ {
		first := min(j*size, m-size)
		dst = append(dst, slot.Window(slot.Select(first), slot.Select(first+size-1)+1))
	}
	return dst
}

// padSmallest is line 8 of Figure 2 under Sequential: it extends the
// receiver subset to exactly alphaR nodes with the smallest ids outside
// tSet ∪ rSet, read from the two sets' words. Feasible because
// |tSet| <= αT and αT + αR <= n.
func padSmallest(rSet, tSet *bitset.Set, alphaR int) {
	need := alphaR - rSet.Count()
	rw, tw := rSet.Words(), tSet.Words()
	for wi := 0; need > 0 && wi < len(rw); wi++ {
		for free := ^(rw[wi] | tw[wi]); need > 0 && free != 0; need-- {
			rSet.Add(wi*64 + bits.TrailingZeros64(free))
			free &= free - 1
		}
	}
	if need > 0 {
		panic(fmt.Sprintf("core: pad could not reach αR = %d (n = %d, |T| = %d)", alphaR, rSet.Cap(), tSet.Count()))
	}
}

// balancer implements the Balanced division. It carries per-node transmit
// and receive occurrence counters across the whole construction so
// over-coverage lands on the least-scheduled nodes.
type balancer struct {
	txUse, rxUse []int
	elems        []int // reused: one slot set's elements at a time
}

// subsets appends slot's Balanced division into subsets of the given size
// to dst, each built element by element.
func (b *balancer) subsets(dst []*bitset.Set, slot *bitset.Set, size int, use []int) []*bitset.Set {
	b.elems = slot.AppendElements(b.elems[:0])
	for _, sub := range divideBalanced(b.elems, size, use) {
		dst = append(dst, bitset.FromSlice(slot.Cap(), sub))
	}
	return dst
}

// divideBalanced splits elems into k = ⌈m/size⌉ subsets, each of size
// min(size, m), per lines 3-4 of Figure 2: it deals elems round-robin,
// then fills each subset to the target size with the globally least-used
// elements not already present. Counts are updated as picks are made so
// successive fills self-balance. Subsets may overlap; their union is all
// of elems.
func divideBalanced(elems []int, size int, use []int) [][]int {
	m := len(elems)
	if m == 0 {
		return nil
	}
	if size > m {
		size = m
	}
	k := combin.CeilDiv(m, size)
	out := make([][]int, k)
	for idx, e := range elems {
		out[idx%k] = append(out[idx%k], e)
		use[e]++
	}
	for j := range out {
		for len(out[j]) < size {
			pick := leastUsed(elems, out[j], use)
			out[j] = append(out[j], pick)
			use[pick]++
		}
	}
	return out
}

// leastUsed returns the element of elems with the smallest use count that
// does not already occur in exclude, breaking ties by element id.
func leastUsed(elems, exclude []int, use []int) int {
	best := -1
	for _, e := range elems {
		skip := false
		for _, x := range exclude {
			if x == e {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if best < 0 || use[e] < use[best] {
			best = e
		}
	}
	if best < 0 {
		panic("core: leastUsed found no candidate")
	}
	return best
}

// pad is line 8 of Figure 2 under Balanced: it extends the receiver
// subset to exactly alphaR nodes of V_n - T̄[k] (never creating a
// transmit+receive conflict), choosing the least receive-scheduled
// eligible nodes, ties broken by id. Feasible because |T̄[k]| <= αT and
// αT + αR <= n.
func (b *balancer) pad(rSet, tSet *bitset.Set, alphaR int) {
	n := rSet.Cap()
	for need := alphaR - rSet.Count(); need > 0; need-- {
		pick := -1
		for v := 0; v < n; v++ {
			if tSet.Contains(v) || rSet.Contains(v) {
				continue
			}
			if pick < 0 || b.rxUse[v] < b.rxUse[pick] {
				pick = v
			}
		}
		if pick < 0 {
			panic(fmt.Sprintf("core: pad could not reach αR = %d (n = %d, |T| = %d)", alphaR, n, tSet.Count()))
		}
		rSet.Add(pick)
		b.rxUse[pick]++
	}
}
