package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cpufeat"
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
// between them. res takes counts: Delivered's rows are slices of it, so the
// caller must not reuse it.
func finishSaturation(res *SaturationResult, g *topology.Graph, em EnergyModel, counts []int, txSlots, rxSlots int) {
	n := g.N()
	frames, L := res.Frames, res.SlotsPerFrame
	// The u-major order is Delivered's layout: row u is u's Degree(u)
	// links, in Neighbors(u) order, all rows in counts.
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
// immutable after construction and safe for concurrent Run calls. It never
// derives the schedule's per-node views.
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
	// The schedule's role census counts its whole universe; take away the
	// nodes at or beyond n, which exist in no topology. When the graph
	// covers the universe there are none, and no word is counted.
	k.txPerFrame, k.rxPerFrame = s.RoleCensus()
	if n < s.N() {
		for i := 0; i < l; i++ {
			k.txPerFrame -= countFrom(s.T(i).Words(), n)
			k.rxPerFrame -= countFrom(s.R(i).Words(), n)
		}
	}
	return k, nil
}

// countFrom returns the number of set bits at or beyond bit n of a set's
// words; n must not exceed the set's capacity.
func countFrom(words []uint64, n int) int {
	c := 0
	if r := n % wordBits; r != 0 {
		c += bits.OnesCount64(words[n/wordBits] >> uint(r))
	}
	for _, w := range words[(n+wordBits-1)/wordBits:] {
		c += bits.OnesCount64(w)
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

// satFastScratch is the per-run working state of the fast path, pooled so a
// campaign of many runs reuses one buffer set per worker.
type satFastScratch struct {
	tw, rw []uint64 // the current 64-slot window of T and R, one word per node
	off    []int64  // dense graphs: off[u], the id of u's first link; off[n] is the link count
	nbr    []int32  // dense graphs: every neighbour row, row v at off[v]
	cursor []int    // per-u link-id cursor of the v-major → u-major pass
	// cnt, first and last are each directed link's delivery record over a
	// frame, v-major: how many of the frame's slots deliver on it, and the
	// first and last of them, as frame slots. A frame has one slot set
	// pointer per slot, so its length is far below 2³¹ and 32 bits hold
	// every field. first and last are read only where cnt is not zero.
	cnt, first, last []int32
	colls            []int // per shard: collision slots per frame
	gaps             []int // per shard: largest in-frame inter-delivery gap
	// The AVX-512 path's rows (resolve.go), sized only when it runs.
	x1    []uint64 // per receiver: the window's slots with exactly one transmitting neighbour, where it listens
	dst   []int32  // per v-major link: its receiver
	multi []uint8  // per eight v-major links: those that delivered twice or more in the window
	// words and recs back tw, rw and x1, and cnt, first, last and dst, so
	// a run that finds the pool empty makes two allocations, not seven.
	words []uint64
	recs  []int32
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

// adjacency is a graph's neighbour rows in compressed form: row v is
// nbr[off[v]:off[v+1]], ascending. The graph is undirected, so v sends on
// as many links as it receives on, and off[v] is the id of v's first link
// in u-major and in v-major order alike.
type adjacency struct {
	off []int64
	nbr []int32
}

// reset sizes the scratch for a run on g split into the given number of
// shards, with the AVX-512 path's rows if kernel is set, and returns g's
// rows: a compressed graph's own, read in place, or a dense graph's
// copied into the scratch. Delivery counts, cursors and shard counters
// start at zero.
func (sc *satFastScratch) reset(g *topology.Graph, shards int, kernel bool) adjacency {
	n := g.N()
	words, recs := 2, 3 // tw and rw; cnt, first and last
	if kernel {
		words, recs = 3, 4 // and x1; and dst
	}
	sc.words = grow(sc.words, words*n)
	sc.tw, sc.rw, sc.x1 = sc.words[:n:n], sc.words[n:2*n:2*n], sc.words[2*n:]
	sc.cursor = grow(sc.cursor, n)
	clear(sc.cursor)
	var a adjacency
	if a.off, a.nbr = g.CSR(); a.off == nil {
		sc.off = grow(sc.off, n+1)
		sc.nbr = sc.nbr[:0]
		for u := 0; u < n; u++ {
			sc.off[u] = int64(len(sc.nbr))
			for wi, w := range g.NeighborWords(u) {
				for ; w != 0; w &= w - 1 {
					sc.nbr = append(sc.nbr, int32(wi*wordBits+bits.TrailingZeros64(w)))
				}
			}
		}
		sc.off[n] = int64(len(sc.nbr))
		a = adjacency{sc.off, sc.nbr}
	}
	m := int(a.off[n])
	sc.recs = grow(sc.recs, recs*m)
	sc.cnt, sc.first, sc.last, sc.dst = sc.recs[:m:m], sc.recs[m:2*m:2*m], sc.recs[2*m:3*m:3*m], sc.recs[3*m:]
	clear(sc.cnt)
	sc.colls = grow(sc.colls, shards)
	sc.gaps = grow(sc.gaps, shards)
	clear(sc.colls)
	clear(sc.gaps)
	if kernel {
		for v := 0; v < n; v++ {
			for e := a.off[v]; e < a.off[v+1]; e++ {
				sc.dst[e] = int32(v)
			}
		}
		// A shard's flags start at byte elo/8 + si of its links [elo, ehi)
		// and take ⌈(ehi−elo)/8⌉ bytes, which ends at or before the next
		// shard's first byte, ehi/8 + si + 1.
		sc.multi = grow(sc.multi, m/8+shards)
	}
	return a
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
// v-major record in sc.cnt, sc.first and sc.last over [off[lo], off[hi]),
// disjoint across shards. Records hold frame slots, so a gap that spans a
// window edge is measured like any other. The window's collision slots and
// its largest inter-delivery gap within the frame go to shard si's
// counters. With kernel set the AVX-512 passes of resolveKernel do the
// work; the loop below is the path without them and their oracle.
//
//ttdc:hotpath per-window saturation resolution of every run; all rows come pooled and presized from the caller
func resolveWindow(a adjacency, sc *satFastScratch, si, lo, hi, base int, kernel bool) {
	if kernel {
		sc.resolveKernel(a, si, lo, hi, base)
		return
	}
	tw, rw := sc.tw, sc.rw
	coll, maxGap := 0, 0
	for v := lo; v < hi; v++ {
		rx := rw[v]
		if rx == 0 {
			continue
		}
		e0, e1 := a.off[v], a.off[v+1]
		nb := a.nbr[e0:e1]
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
		cnt, first, last := sc.cnt[e0:e1], sc.first[e0:e1], sc.last[e0:e1]
		for j, u := range nb {
			w := x1 & tw[u]
			if w == 0 {
				continue
			}
			b := int32(base + bits.TrailingZeros64(w))
			if cnt[j] == 0 {
				first[j] = b
			} else if gap := int(b - last[j] - 1); gap > maxGap {
				maxGap = gap
			}
			cnt[j] += int32(bits.OnesCount64(w))
			for w &= w - 1; w != 0; w &= w - 1 {
				next := int32(base + bits.TrailingZeros64(w))
				if gap := int(next - b - 1); gap > maxGap {
					maxGap = gap
				}
				b = next
			}
			last[j] = b
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
	kernel := cpufeat.ResolveKernel
	sc := satFastPool.Get().(*satFastScratch)
	defer satFastPool.Put(sc)
	a := sc.reset(g, len(ranges), kernel)
	nLinks := int(a.off[n])
	var workers *shardWorkers
	if len(ranges) > 1 {
		//lint:ignore poolescape the workers read and write sc only inside round, which joins every shard before it returns; stop retires them before the deferred Put releases sc
		workers = startShardWorkers(len(ranges), func(si, base int) {
			resolveWindow(a, sc, si, ranges[si][0], ranges[si][1], base, kernel)
		})
		defer workers.stop()
	}
	for base := 0; base < l; base += wordBits {
		transposeSlotWindow(k.s, base, sc.tw, sc.rw)
		if workers != nil {
			workers.round(base)
		} else {
			resolveWindow(a, sc, 0, 0, n, base, kernel)
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
	// takes into the result, assigned through a per-u cursor — each u's
	// neighbours appear in ascending v order across the v-major
	// traversal, in which link id's sender is nbr[id].
	var counts []int // nil without links, as the reference loop leaves it
	if nLinks > 0 {
		counts = make([]int, nLinks)
	}
	for id, u32 := range a.nbr[:nLinks] {
		u := int(u32)
		c := sc.cnt[id]
		if c > 0 && frames > 1 {
			maxGap = max(maxGap, int(sc.first[id])+l-int(sc.last[id])-1)
		}
		counts[int(a.off[u])+sc.cursor[u]] = int(c) * frames
		sc.cursor[u]++
	}
	res.CollisionSlots = collPerFrame * frames
	res.MaxInterDeliveryGap = maxGap
	finishSaturation(res, g, em, counts, k.txPerFrame*frames, k.rxPerFrame*frames)
	return res, nil
}
