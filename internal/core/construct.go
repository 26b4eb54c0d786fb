package core

import (
	"fmt"

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
	// Sequential divides a sorted element list into consecutive chunks; the
	// final chunk, when short, is extended backwards to reach the required
	// size (so chunks may overlap). Simple and deterministic.
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

	div := newDivider(n, opts.Strategy)
	// Theorem 7's closed-form frame length sizes the output slot lists.
	frame := ConstructedFrameLength(ns, sizeT, opts.AlphaR)
	outT := make([]*bitset.Set, 0, frame)
	outR := make([]*bitset.Set, 0, frame)
	var tElems, rElems []int // reused: a slot's subsets are built before the next slot
	for i := 0; i < ns.L(); i++ {
		tElems = ns.t[i].AppendElements(tElems[:0])
		rElems = ns.r[i].AppendElements(rElems[:0]) // == V_n - T[i] for non-sleeping input
		if len(tElems) == 0 {
			// A slot nobody transmits in contributes nothing; Figure 2's
			// loop would emit k_T = 0 subsets. Skip it.
			continue
		}
		// Each subset becomes one set shared by all k_T·k_R output slots
		// it appears in; only a receiver subset that line 8 pads is
		// copied, because its padding depends on the transmitter subset.
		tSets := div.subsetSets(ns.t[i], div.divideT(tElems, sizeT))
		rSubsets := div.divideR(rElems, opts.AlphaR)
		rSets := div.subsetSets(ns.r[i], rSubsets)
		for _, tSet := range tSets {
			for j, rSet := range rSets {
				if len(rSubsets[j]) < opts.AlphaR {
					rSet = rSet.Clone()
					div.pad(rSet, tSet, opts.AlphaR)
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

// subsetSets builds one bitset over V_n per subset of slot's elements. A
// Sequential subset is a run of consecutive elements of slot, so its set
// is slot's window from the run's first element to its last; Balanced
// subsets are not runs and are built element by element.
func (d *divider) subsetSets(slot *bitset.Set, subsets [][]int) []*bitset.Set {
	sets := make([]*bitset.Set, len(subsets))
	for i, sub := range subsets {
		if d.strategy == Balanced {
			sets[i] = bitset.FromSlice(slot.Cap(), sub)
		} else {
			sets[i] = slot.Window(sub[0], sub[len(sub)-1]+1)
		}
	}
	return sets
}

// divider implements the two division strategies. The Balanced strategy
// carries per-node transmit/receive occurrence counters across the whole
// construction so over-coverage lands on the least-scheduled nodes.
type divider struct {
	strategy DivisionStrategy
	txUse    []int
	rxUse    []int
}

func newDivider(n int, strategy DivisionStrategy) *divider {
	return &divider{
		strategy: strategy,
		txUse:    make([]int, n),
		rxUse:    make([]int, n),
	}
}

func (d *divider) divideT(elems []int, size int) [][]int {
	return d.divide(elems, size, d.txUse)
}

func (d *divider) divideR(elems []int, size int) [][]int {
	return d.divide(elems, size, d.rxUse)
}

// divide splits elems into k = ⌈m/size⌉ subsets, each of size
// min(size, m), per lines 3-4 of Figure 2. Subsets may overlap; their
// union is all of elems. Sequential subsets are read-only windows of
// elems.
func (d *divider) divide(elems []int, size int, use []int) [][]int {
	m := len(elems)
	if m == 0 {
		return nil
	}
	if size > m {
		size = m
	}
	k := combin.CeilDiv(m, size)
	out := make([][]int, k)
	switch d.strategy {
	case Balanced:
		// Deal round-robin, then fill each subset to the target size with
		// the globally least-used elements not already present. Counts are
		// updated as picks are made so successive fills self-balance.
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
	default: // Sequential
		for j := 0; j < k; j++ {
			start := j * size
			if start+size > m {
				start = m - size
			}
			out[j] = elems[start : start+size : start+size]
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

// pad implements line 8 of Figure 2: extend the receiver subset to exactly
// alphaR nodes using nodes of V_n - T̄[k] (never creating a
// transmit+receive conflict). Feasible because |T̄[k]| <= αT and
// αT + αR <= n. Under the Balanced strategy the least receive-scheduled
// eligible nodes are chosen; Sequential takes the smallest ids.
func (d *divider) pad(rSet, tSet *bitset.Set, alphaR int) {
	need := alphaR - rSet.Count()
	if need <= 0 {
		return
	}
	n := rSet.Cap()
	for ; need > 0; need-- {
		pick := -1
		for v := 0; v < n; v++ {
			if tSet.Contains(v) || rSet.Contains(v) {
				continue
			}
			if pick < 0 {
				pick = v
				if d.strategy != Balanced {
					break // smallest id suffices
				}
				continue
			}
			if d.rxUse[v] < d.rxUse[pick] {
				pick = v
			}
		}
		if pick < 0 {
			panic(fmt.Sprintf("core: pad could not reach αR = %d (n = %d, |T| = %d)", alphaR, n, tSet.Count()))
		}
		rSet.Add(pick)
		d.rxUse[pick]++
	}
}
