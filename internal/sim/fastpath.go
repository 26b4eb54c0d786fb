package sim

import (
	"fmt"
	"math/bits"
	"sync"

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
	delivered := make(map[int]map[int]int, n)
	totalLinks := 0
	totalDeliveries := 0
	minPerFrame := -1.0
	id := 0
	for u := 0; u < n; u++ {
		delivered[u] = make(map[int]int)
		g.ForEachNeighbor(u, func(v int) bool {
			d := linkCounts[id]
			id++
			if d > 0 {
				delivered[u][v] = d
			}
			totalLinks++
			totalDeliveries += d
			perFrame := float64(d) / float64(frames)
			if minPerFrame < 0 || perFrame < minPerFrame {
				minPerFrame = perFrame
			}
			return true
		})
	}
	res.Delivered = delivered
	if totalLinks > 0 {
		res.MinLinkPerFrame = minPerFrame
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
// saturation fast path: per-node transmit-slot words, receive-role slot
// words (recv \ tran — RoleOf gives Transmit precedence), and the per-frame
// role census. A kernel is a pure function of (schedule, n); it is immutable
// after construction and safe for concurrent Run calls, so a campaign can
// build it once per grid point and share it across every replication's
// topology on the engine worker pool.
type SaturationKernel struct {
	s  *core.Schedule
	n  int
	l  int
	lw int // words per L-bit slot row
	// tran[u] aliases the schedule's tran(u) backing words (read-only).
	tran [][]uint64
	// rxOnly is the flat n×lw struct-of-arrays row block: rxOnly[u*lw:(u+1)*lw]
	// holds recv(u) &^ tran(u), the slots in which u has the Receive role.
	rxOnly []uint64
	// txPerFrame and rxPerFrame are Σ_u |tran(u)| and Σ_u |recv(u) \ tran(u)|:
	// the per-frame node-slot role census that prices energy and duty cycle.
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
	lw := (l + wordBits - 1) / wordBits
	k := &SaturationKernel{
		s:      s,
		n:      n,
		l:      l,
		lw:     lw,
		tran:   make([][]uint64, n),
		rxOnly: make([]uint64, n*lw),
	}
	for u := 0; u < n; u++ {
		tw := s.Tran(u).Words()
		rw := s.Recv(u).Words()
		k.tran[u] = tw
		row := k.rxOnly[u*lw : (u+1)*lw]
		for j := 0; j < lw; j++ {
			t := tw[j]
			r := rw[j] &^ t
			row[j] = r
			k.txPerFrame += bits.OnesCount64(t)
			k.rxPerFrame += bits.OnesCount64(r)
		}
	}
	return k, nil
}

// N returns the node-universe size the kernel was built for.
func (k *SaturationKernel) N() int { return k.n }

// satFastScratch is the per-run working state of the fast path, pooled so a
// campaign of many runs reuses one buffer set per worker.
type satFastScratch struct {
	offset, cursor []int // u-major link-id assignment during the transpose
	vmaj           []int // whole-run deliveries per directed link, v-major
	linkCounts     []int // whole-run deliveries per directed link, u-major
}

var satFastPool = sync.Pool{New: func() any { return new(satFastScratch) }}

// reset sizes the scratch for n nodes and nLinks directed links, and clears
// what must start zeroed.
func (sc *satFastScratch) reset(n, nLinks int) {
	if cap(sc.offset) < n {
		sc.offset = make([]int, n)
		sc.cursor = make([]int, n)
	}
	sc.offset = sc.offset[:n]
	sc.cursor = sc.cursor[:n]
	for i := range sc.cursor {
		sc.cursor[i] = 0
	}
	if cap(sc.vmaj) < nLinks {
		sc.vmaj = make([]int, nLinks)
		sc.linkCounts = make([]int, nLinks)
	}
	sc.vmaj = sc.vmaj[:nLinks]
	sc.linkCounts = sc.linkCounts[:nLinks]
}

// satShardScratch is one shard worker's private slot rows, pooled
// separately from the run-wide scratch so shards=N runs borrow N row sets.
type satShardScratch struct {
	once, many, x1 []uint64 // L-bit rows: transmit-count parity, ≥2, exactly-1
}

var satShardPool = sync.Pool{New: func() any { return new(satShardScratch) }}

func (ss *satShardScratch) reset(lw int) {
	if cap(ss.once) < lw {
		ss.once = make([]uint64, lw)
		ss.many = make([]uint64, lw)
		ss.x1 = make([]uint64, lw)
	}
	ss.once = ss.once[:lw]
	ss.many = ss.many[:lw]
	ss.x1 = ss.x1[:lw]
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

// resolveRange resolves the receiver rows [lo, hi) of one frame: for each
// receiver v, a saturating two-bit counter over its neighbours'
// transmit-slot words yields the slots with exactly one transmitting
// neighbour (once &^ many) and with two or more (many) in
// O(deg(v) · L/64) word operations, then each incoming link's delivery
// count and inter-delivery gaps are read off x1 ∩ tran(u). Whole-run
// per-link counts are written to vmaj in v-major order (the write range is
// vmaj[inOff[lo]:inOff[hi]], disjoint across shards). Returns the range's
// per-frame collision-slot count and its maximum inter-delivery gap.
//
//ttdc:hotpath per-shard saturation frame resolution; all rows come pooled and presized from the caller
func (k *SaturationKernel) resolveRange(g *topology.Graph, lo, hi, frames int,
	ss *satShardScratch, inOff []int, vmaj []int) (collPerFrame, maxGap int) {
	l, lw := k.l, k.lw
	once, many, x1 := ss.once, ss.many, ss.x1
	id := inOff[lo]
	for v := lo; v < hi; v++ {
		for j := range once {
			once[j] = 0
			many[j] = 0
		}
		g.ForEachNeighbor(v, func(u int) bool {
			tw := k.tran[u]
			for j := range once {
				carry := once[j] & tw[j]
				once[j] ^= tw[j]
				many[j] |= carry
			}
			return true
		})
		rx := k.rxOnly[v*lw : (v+1)*lw]
		for j := range rx {
			collPerFrame += bits.OnesCount64(rx[j] & many[j])
			x1[j] = rx[j] & once[j] &^ many[j]
		}
		// Per incoming link u→v: the delivery slots of one frame are
		// x1 ∩ tran(u) (if u is the unique transmitting neighbour of a
		// slot and u transmits, u is the sender). Inter-delivery gaps over
		// the whole run follow from the periodic pattern: consecutive
		// in-frame gaps, plus the frame-wrap gap when the run has a second
		// frame for the pattern to repeat into.
		g.ForEachNeighbor(v, func(u int) bool {
			tw := k.tran[u]
			cnt := 0
			first, prev := -1, -1
			for j := range x1 {
				w := x1[j] & tw[j]
				for w != 0 {
					b := j*wordBits + bits.TrailingZeros64(w)
					w &= w - 1
					if prev >= 0 {
						if gap := b - prev - 1; gap > maxGap {
							maxGap = gap
						}
					} else {
						first = b
					}
					prev = b
					cnt++
				}
			}
			if cnt > 0 && frames > 1 {
				if gap := first + l - prev - 1; gap > maxGap {
					maxGap = gap
				}
			}
			vmaj[id] = cnt * frames
			id++
			return true
		})
	}
	return collPerFrame, maxGap
}

// RunSharded is Run with the receiver-major frame resolution split across
// the given number of shards (see resolveShards for the count semantics:
// 0 or 1 sequential, negative one per CPU). Each shard resolves a
// contiguous word-aligned receiver range into its own pooled slot rows and
// a disjoint v-major span of the shared per-link counters; the shards'
// collision and gap counters are then merged in ascending shard order.
// Integer sums and maxima are associative, so the result is byte-identical
// at every shard count — RunSharded(g, f, em, n) and Run(g, f, em) return
// reflect.DeepEqual results (pinned by the differential matrix and fuzz
// harness in this package).
func (k *SaturationKernel) RunSharded(g *topology.Graph, frames int, em EnergyModel, shards int) (*SaturationResult, error) {
	if g.N() != k.n {
		return nil, fmt.Errorf("sim: kernel built for %d nodes but graph has %d", k.n, g.N())
	}
	if frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", frames)
	}
	n, lw := k.n, k.lw
	res := &SaturationResult{
		Frames:        frames,
		SlotsPerFrame: k.l,
	}
	// u-major link ids: offset[u] is the id of u's first outgoing link. The
	// same prefix array gives the v-major spans (in-neighbours equal
	// out-neighbours in an undirected graph).
	nLinks := 0
	sc := satFastPool.Get().(*satFastScratch)
	defer satFastPool.Put(sc)
	sc.reset(n, 2*g.EdgeCount())
	for u := 0; u < n; u++ {
		sc.offset[u] = nLinks
		nLinks += g.Degree(u)
	}
	collPerFrame := 0
	maxGap := 0
	ranges := shardRanges(n, resolveShards(shards, n))
	if len(ranges) == 1 {
		ss := satShardPool.Get().(*satShardScratch)
		ss.reset(lw)
		collPerFrame, maxGap = k.resolveRange(g, 0, n, frames, ss, sc.offset, sc.vmaj)
		satShardPool.Put(ss)
	} else {
		colls := make([]int, len(ranges))
		gaps := make([]int, len(ranges))
		var wg sync.WaitGroup
		for si, r := range ranges {
			wg.Add(1)
			//lint:ignore poolescape the goroutine reads sc.offset/sc.vmaj only until wg.Done; wg.Wait below joins every shard before the deferred Put releases sc
			go func(si, lo, hi int) {
				defer wg.Done()
				ss := satShardPool.Get().(*satShardScratch)
				ss.reset(lw)
				colls[si], gaps[si] = k.resolveRange(g, lo, hi, frames, ss, sc.offset, sc.vmaj)
				satShardPool.Put(ss)
			}(si, r[0], r[1])
		}
		wg.Wait()
		// Deterministic ascending-shard reduction (order-insensitive for
		// integer + and max, kept explicit as the documented discipline).
		for si := range ranges {
			collPerFrame += colls[si]
			if gaps[si] > maxGap {
				maxGap = gaps[si]
			}
		}
	}
	// Sequential v-major → u-major transpose: the id assignment below visits
	// links in exactly the order the pre-shard implementation wrote them, so
	// linkCounts is bit-for-bit the array finishSaturation always consumed.
	id := 0
	for v := 0; v < n; v++ {
		g.ForEachNeighbor(v, func(u int) bool {
			sc.linkCounts[sc.offset[u]+sc.cursor[u]] = sc.vmaj[id]
			sc.cursor[u]++
			id++
			return true
		})
	}
	res.CollisionSlots = collPerFrame * frames
	res.MaxInterDeliveryGap = maxGap
	finishSaturation(res, g, em, sc.linkCounts[:nLinks], k.txPerFrame*frames, k.rxPerFrame*frames)
	return res, nil
}
