package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/topology"
)

const wordBits = 64

// energyFromCounts prices a node-slot census under an energy model. Both the
// legacy reference loops and the SoA fast paths compute radio energy through
// this one expression, from identical integer counters, which is what makes
// the energy fields of their results byte-identical rather than merely close:
// float addition is not associative, so the two paths must not accumulate
// per-slot terms in different orders.
//
//ttdc:hotpath the single energy-pricing expression both simulator paths fold their censuses through
func energyFromCounts(em EnergyModel, tx, rx, sleep int) float64 {
	return float64(tx)*em.TxPower*em.SlotSeconds +
		float64(rx)*em.RxPower*em.SlotSeconds +
		float64(sleep)*em.SleepPower*em.SlotSeconds
}

// finishSaturation derives every reported field of res from the integer core
// of a saturation run: whole-run delivery counts per directed link in u-major
// order (u ascending, then v ascending within Neighbors(u)), and whole-run
// transmit-role / receive-role node-slot counts. The fast path and its
// test-only reference loop both end here, so the derived floats (per-frame
// rates, throughputs, energy, active fraction) are structurally identical
// between them.
func finishSaturation(res *SaturationResult, g *topology.Graph, em EnergyModel, linkCounts []int, txSlots, rxSlots int) {
	n := g.N()
	frames, L := res.Frames, res.SlotsPerFrame
	// The u-major order is Delivered's layout: row u is u's Degree(u)
	// links, in Neighbors(u) order, all rows in one copy of linkCounts.
	counts := append([]int(nil), linkCounts...)
	res.Delivered = make([][]int, n)
	id := 0
	for u := 0; u < n; u++ {
		next := id + g.Degree(u)
		res.Delivered[u] = counts[id:next:next]
		id = next
	}
	totalDeliveries := 0
	for _, d := range counts {
		totalDeliveries += d
	}
	if totalLinks := len(counts); totalLinks > 0 {
		res.MinLinkPerFrame = float64(slices.Min(counts)) / float64(frames)
		res.AvgLinkPerFrame = float64(totalDeliveries) / float64(totalLinks) / float64(frames)
		res.MinLinkThroughput = res.MinLinkPerFrame / float64(L)
		res.AvgLinkThroughput = res.AvgLinkPerFrame / float64(L)
	}
	res.TotalEnergy = energyFromCounts(em, txSlots, rxSlots, n*L*frames-txSlots-rxSlots)
	if totalDeliveries > 0 {
		res.EnergyPerDelivery = res.TotalEnergy / float64(totalDeliveries)
	} else {
		res.EnergyPerDelivery = 0
		if res.TotalEnergy > 0 {
			res.EnergyPerDelivery = res.TotalEnergy // degenerate; callers inspect deliveries
		}
	}
	res.ActiveFraction = float64(txSlots+rxSlots) / float64(n*L*frames)
}

// SaturationKernel is the topology-independent precomputation of the
// saturation fast path: the schedule, whose slot sets T[i] and R[i] a run
// reads in place 64 slots at a time, and the per-frame role census of the
// graph's n nodes. A kernel is a pure function of (schedule, n); it is
// immutable after construction and safe for concurrent Run calls, so a
// campaign can build it once per grid point and share it across every
// replication's topology on the engine worker pool. It never derives the
// schedule's per-node views.
type SaturationKernel struct {
	s *core.Schedule
	n int
	l int
	// txPerFrame and rxPerFrame are Σ_i |T[i] ∩ [0,n)| and
	// Σ_i |R[i] ∩ [0,n)|: the per-frame node-slot role census that prices
	// energy and duty cycle. Every schedule constructor rejects a node
	// that both transmits and receives in one slot, so R[i] is exactly the
	// slot's Receive-role nodes.
	txPerFrame, rxPerFrame int
}

// NewSaturationKernel precomputes the fast-path state for saturation runs of
// schedule s over graphs on exactly n nodes (n may be smaller than the
// schedule's universe; the extra schedule nodes exist in no topology and are
// ignored, as in the legacy loop).
func NewSaturationKernel(s *core.Schedule, n int) (*SaturationKernel, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: kernel needs n >= 1, got %d", n)
	}
	if n > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", n, s.N())
	}
	l := s.L()
	k := &SaturationKernel{s: s, n: n, l: l}
	for i := 0; i < l; i++ {
		k.txPerFrame += countBelow(s.T(i).Words(), n)
		k.rxPerFrame += countBelow(s.R(i).Words(), n)
	}
	return k, nil
}

// countBelow returns the number of set bits below bit n of a set's words.
func countBelow(words []uint64, n int) int {
	c := 0
	full := n / wordBits
	for _, w := range words[:full] {
		c += bits.OnesCount64(w)
	}
	if r := n % wordBits; r != 0 {
		c += bits.OnesCount64(words[full] & (uint64(1)<<uint(r) - 1))
	}
	return c
}

// transposeSlotWindow transposes the slot sets of frame slots
// [lo, lo+64) ∩ [0, L) into one word per node: bit k of tw[v] is set
// exactly when v ∈ T[lo+k], and of rw[v] when v ∈ R[lo+k]. Nodes at or
// beyond len(tw) (len(rw)) are ignored, so a graph smaller than the
// schedule's universe reads only its own nodes.
func transposeSlotWindow(s *core.Schedule, lo int, tw, rw []uint64) {
	var t, r [wordBits]*bitset.Set
	m := min(wordBits, s.L()-lo)
	for k := 0; k < m; k++ {
		t[k], r[k] = s.T(lo+k), s.R(lo+k)
	}
	bitset.TransposeWindow(t[:m], tw)
	bitset.TransposeWindow(r[:m], rw)
}

// N returns the node-universe size the kernel was built for.
func (k *SaturationKernel) N() int { return k.n }

// linkRec is one directed link's delivery record over a frame: how many
// of the frame's slots deliver on it, and the first and last of them, as
// frame slots. A frame has one slot set pointer per slot, so its length
// is far below 2³¹ and 32 bits hold every field.
type linkRec struct{ cnt, first, last int32 }

// satFastScratch is the per-run working state of the fast path, pooled so a
// campaign of many runs reuses one buffer set per worker.
type satFastScratch struct {
	tw, rw     []uint64  // the current 64-slot window of T and R, one word per node
	offset     []int     // offset[u]: id of u's first link; offset[n] is the link count
	cursor     []int     // per-u link-id cursor of the v-major → u-major pass
	nbr        []int32   // dense graphs: every neighbour row, row v at offset[v]
	rec        []linkRec // per directed link, v-major
	linkCounts []int     // whole-run deliveries per directed link, u-major
	colls      []int     // per shard: collision slots per frame
	gaps       []int     // per shard: largest in-frame inter-delivery gap
}

var satFastPool = sync.Pool{New: func() any { return new(satFastScratch) }}

// grow returns s resized to n elements, reusing its backing array when it
// is large enough. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the scratch for a run on g split into the given number of
// shards: the link offsets (u-major ids; in an undirected graph the same
// prefix sums give each receiver's v-major span), a dense graph's flat
// neighbour rows, and zeroed link records, cursors and shard counters.
// It returns the number of directed links.
func (sc *satFastScratch) reset(g *topology.Graph, shards int) int {
	n := g.N()
	sc.tw = grow(sc.tw, n)
	sc.rw = grow(sc.rw, n)
	sc.offset = grow(sc.offset, n+1)
	sc.cursor = grow(sc.cursor, n)
	clear(sc.cursor)
	nLinks := 0
	if g.IsCompressed() {
		for u := 0; u < n; u++ {
			sc.offset[u] = nLinks
			nLinks += g.Degree(u)
		}
	} else {
		sc.nbr = sc.nbr[:0]
		for u := 0; u < n; u++ {
			sc.offset[u] = len(sc.nbr)
			for wi, w := range g.NeighborWords(u) {
				for ; w != 0; w &= w - 1 {
					sc.nbr = append(sc.nbr, int32(wi*wordBits+bits.TrailingZeros64(w)))
				}
			}
		}
		nLinks = len(sc.nbr)
	}
	sc.offset[n] = nLinks
	sc.rec = grow(sc.rec, nLinks)
	clear(sc.rec)
	sc.linkCounts = grow(sc.linkCounts, nLinks)
	sc.colls = grow(sc.colls, shards)
	sc.gaps = grow(sc.gaps, shards)
	clear(sc.colls)
	clear(sc.gaps)
	return nLinks
}

// neighbors returns v's sorted neighbour row: the CSR row itself on a
// compressed graph, the scratch copy on a dense one.
func (sc *satFastScratch) neighbors(g *topology.Graph, v int) []int32 {
	if g.IsCompressed() {
		return g.NeighborRow(v)
	}
	return sc.nbr[sc.offset[v]:sc.offset[v+1]]
}

// Run executes a saturation run on g using the word-parallel fast path. The
// saturation workload is frame-periodic — every node transmits in every
// eligible slot, so the delivery pattern of slot i is identical in every
// frame — which lets the fast path resolve a single frame with bitset word
// operations and scale the integer counters by the frame count. The result
// is field-for-field identical to the per-node reference loop on the same
// inputs (pinned by the differential matrix and fuzz harness in this
// package).
func (k *SaturationKernel) Run(g *topology.Graph, frames int, em EnergyModel) (*SaturationResult, error) {
	return k.RunSharded(g, frames, em, 1)
}

// resolveWindow resolves the receivers [lo, hi) over the 64 frame slots
// from base, whose transmit and receive words sc.tw and sc.rw hold: for
// each receiver v, a saturating two-bit counter over its neighbours'
// transmit words yields the slots with exactly one transmitting neighbour
// (once &^ many) and with two or more (many), and each incoming link u→v
// delivers in x1 ∩ tw[u] (if u is the unique transmitting neighbour of a
// slot and u transmits, u is the sender). The deliveries update the link's
// v-major record in sc.rec[offset[lo]:offset[hi]], disjoint across shards.
// Records hold frame slots, so a gap that spans a window edge is measured
// like any other. The window's collision slots and its largest
// inter-delivery gap within the frame go to shard si's counters.
//
//ttdc:hotpath per-window saturation resolution of every run; all rows come pooled and presized from the caller
func resolveWindow(g *topology.Graph, sc *satFastScratch, si, lo, hi, base int) {
	tw, rw := sc.tw, sc.rw
	coll, maxGap := 0, 0
	for v := lo; v < hi; v++ {
		rx := rw[v]
		if rx == 0 {
			continue
		}
		nb := sc.neighbors(g, v)
		var once, many uint64
		for _, u := range nb {
			t := tw[u]
			many |= once & t
			once ^= t
		}
		coll += bits.OnesCount64(rx & many)
		x1 := rx & once &^ many
		if x1 == 0 {
			continue
		}
		links := sc.rec[sc.offset[v]:sc.offset[v+1]]
		for j, u := range nb {
			w := x1 & tw[u]
			if w == 0 {
				continue
			}
			r := &links[j]
			b := int32(base + bits.TrailingZeros64(w))
			if r.cnt == 0 {
				r.first = b
			} else if gap := int(b - r.last - 1); gap > maxGap {
				maxGap = gap
			}
			r.cnt += int32(bits.OnesCount64(w))
			for w &= w - 1; w != 0; w &= w - 1 {
				next := int32(base + bits.TrailingZeros64(w))
				if gap := int(next - b - 1); gap > maxGap {
					maxGap = gap
				}
				b = next
			}
			r.last = b
		}
	}
	sc.colls[si] += coll
	sc.gaps[si] = max(sc.gaps[si], maxGap)
}

// RunSharded is Run with the receiver-major resolution split across the
// given number of shards (see resolveShards for the count semantics: 0 or
// 1 sequential, negative one per CPU). The frame is read in 64-slot
// windows: the calling goroutine transposes each window's T and R slot
// sets into pooled per-node words, then every shard resolves its
// contiguous word-aligned receiver range against them (shard 0 on the
// calling goroutine, the rest on persistent workers) before the next
// window overwrites them. Each shard writes a disjoint v-major span of the
// link records and its own collision and gap counters, merged in ascending
// shard order. Integer sums and maxima are associative, so the result is
// byte-identical at every shard count — RunSharded(g, f, em, n) and
// Run(g, f, em) return reflect.DeepEqual results (pinned by the
// differential matrix and fuzz harness in this package).
func (k *SaturationKernel) RunSharded(g *topology.Graph, frames int, em EnergyModel, shards int) (*SaturationResult, error) {
	if g.N() != k.n {
		return nil, fmt.Errorf("sim: kernel built for %d nodes but graph has %d", k.n, g.N())
	}
	if frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", frames)
	}
	n, l := k.n, k.l
	res := &SaturationResult{
		Frames:        frames,
		SlotsPerFrame: l,
	}
	ranges := shardRanges(n, resolveShards(shards, n))
	sc := satFastPool.Get().(*satFastScratch)
	defer satFastPool.Put(sc)
	nLinks := sc.reset(g, len(ranges))
	var workers *shardWorkers
	if len(ranges) > 1 {
		//lint:ignore poolescape the workers read and write sc only inside round, which joins every shard before it returns; stop retires them before the deferred Put releases sc
		workers = startShardWorkers(len(ranges), func(si, base int) {
			resolveWindow(g, sc, si, ranges[si][0], ranges[si][1], base)
		})
		defer workers.stop()
	}
	for base := 0; base < l; base += wordBits {
		transposeSlotWindow(k.s, base, sc.tw, sc.rw)
		if workers != nil {
			workers.round(base)
		} else {
			resolveWindow(g, sc, 0, 0, n, base)
		}
	}
	// Deterministic ascending-shard reduction (order-insensitive for
	// integer + and max, kept explicit as the documented discipline).
	collPerFrame, maxGap := 0, 0
	for si := range ranges {
		collPerFrame += sc.colls[si]
		maxGap = max(maxGap, sc.gaps[si])
	}
	// Sequential v-major → u-major pass: the frame-wrap gap of every link
	// that delivers (once a second frame exists for the pattern to repeat
	// into), and whole-run counts in the u-major order finishSaturation
	// consumes, assigned through a per-u cursor — each u's neighbours
	// appear in ascending v order across the v-major traversal.
	id := 0
	for v := 0; v < n; v++ {
		for _, u32 := range sc.neighbors(g, v) {
			u := int(u32)
			r := sc.rec[id]
			if r.cnt > 0 && frames > 1 {
				maxGap = max(maxGap, int(r.first)+l-int(r.last)-1)
			}
			sc.linkCounts[sc.offset[u]+sc.cursor[u]] = int(r.cnt) * frames
			sc.cursor[u]++
			id++
		}
	}
	res.CollisionSlots = collPerFrame * frames
	res.MaxInterDeliveryGap = maxGap
	finishSaturation(res, g, em, sc.linkCounts[:nLinks], k.txPerFrame*frames, k.rxPerFrame*frames)
	return res, nil
}
