package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ConvergecastKernel is the reusable precomputation of the convergecast
// fast path for one (graph, schedule, sink) triple under the paper's core
// model (ideal channel, perfect synchronization, no tracer): the BFS
// routing tree, per-frame-slot transmit-eligibility and receive-role word
// rows, and the per-node receive census. Earlier revisions re-derived all
// of this inside every run; a campaign of R replications paid it R times.
// A kernel is immutable after construction and safe for concurrent Run
// calls, so the engine builds one per (schedule, topology, sink) grid
// point and shares it across the worker pool.
type ConvergecastKernel struct {
	s      *core.Schedule
	g      *topology.Graph
	sink   int
	n      int
	l      int
	nw     int // words per n-bit node row
	parent []int
	// txElig[i*nw:(i+1)*nw] is the n-bit set of nodes that would transmit
	// in frame-slot i if they had traffic: v ≠ sink with v ∈ T[i] and
	// parent[v] ∈ R[i] \ T[i] — exactly the nodes for which the legacy
	// loop's wantTx survives the ShouldTransmit gate and Role returns
	// Transmit. rxRole likewise holds the Receive-role rows R[i] \ T[i],
	// masked to the graph's n nodes (the schedule universe may be larger).
	txElig, rxRole []uint64
	// adjW holds the dense graph's adjacency rows as one flat word array
	// (row v at [v*nw, (v+1)*nw)), so the contention pass indexes straight
	// into it with no per-node pointer chase. nil on compressed graphs,
	// which keep their CSR rows.
	adjW []uint64
	// rxPerFrame[v] = |recv(v) \ tran(v)|: the Receive role is independent
	// of traffic, so each node's whole-run receive census is fixed per
	// frame at build time.
	rxPerFrame []int
}

// NewConvergecastKernel validates the triple and precomputes the fast-path
// state. The graph must be connected so every node has a route to the
// sink.
func NewConvergecastKernel(g *topology.Graph, s *core.Schedule, sink int) (*ConvergecastKernel, error) {
	n := g.N()
	if n > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", n, s.N())
	}
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("sim: sink %d out of range", sink)
	}
	parent, dist := g.BFSTree(sink)
	for v := 0; v < n; v++ {
		if dist[v] < 0 {
			return nil, fmt.Errorf("sim: node %d cannot reach the sink", v)
		}
	}
	L := s.L()
	nw := (n + wordBits - 1) / wordBits
	k := &ConvergecastKernel{
		s:          s,
		g:          g,
		sink:       sink,
		n:          n,
		l:          L,
		nw:         nw,
		parent:     parent,
		txElig:     make([]uint64, L*nw),
		rxRole:     make([]uint64, L*nw),
		rxPerFrame: make([]int, n),
	}
	lastMask := ^uint64(0)
	if r := n % wordBits; r != 0 {
		lastMask = (uint64(1) << uint(r)) - 1
	}
	for i := 0; i < L; i++ {
		tW := s.T(i).Words()
		rW := s.R(i).Words()
		row := k.rxRole[i*nw : (i+1)*nw]
		for j := 0; j < nw; j++ {
			row[j] = rW[j] &^ tW[j]
		}
		row[nw-1] &= lastMask
	}
	if !g.IsCompressed() {
		k.adjW = make([]uint64, n*nw)
		for v := 0; v < n; v++ {
			copy(k.adjW[v*nw:(v+1)*nw], g.NeighborWords(v))
		}
	}
	for v := 0; v < n; v++ {
		tw := s.Tran(v).Words()
		rw := s.Recv(v).Words()
		rx := 0
		for j := range rw {
			rx += bits.OnesCount64(rw[j] &^ tw[j])
		}
		k.rxPerFrame[v] = rx
		if v == sink {
			continue
		}
		p := parent[v]
		s.Tran(v).ForEach(func(i int) bool {
			if k.rxRole[i*nw+p>>6]>>uint(p&63)&1 == 1 {
				k.txElig[i*nw+v>>6] |= uint64(1) << uint(v&63)
			}
			return true
		})
	}
	return k, nil
}

// N returns the node count the kernel was built for.
func (k *ConvergecastKernel) N() int { return k.n }

// Sink returns the collection node the kernel routes toward.
func (k *ConvergecastKernel) Sink() int { return k.sink }

// ccFastScratch is the pooled per-run working state of the convergecast
// fast path (the slot-invariant rows live in the kernel).
type ccFastScratch struct {
	hasTraffic []uint64 // nodes with a non-empty queue
	once, many []uint64 // saturating 2-bit contention counter over receivers
	parentTx   []uint64 // parents of this slot's transmitters
	txList     []int32  // this slot's transmitters, ascending
	childTx    []int32  // childTx[u]: the last transmitter whose parent is u
	txCnt      []int    // whole-run role census per node
	rxCnt      []int
	arrivedAt  []int // slot when the queue-head arrived at this hop
	qhead      []int32
	queues     [][]Packet
}

var ccFastPool = sync.Pool{New: func() any { return new(ccFastScratch) }}

// reset sizes the scratch for n nodes and nw-word node rows, and clears
// everything that must start zeroed.
func (sc *ccFastScratch) reset(n, nw int) {
	if cap(sc.hasTraffic) < nw {
		sc.hasTraffic = make([]uint64, nw)
		sc.once = make([]uint64, nw)
		sc.many = make([]uint64, nw)
		sc.parentTx = make([]uint64, nw)
	}
	sc.hasTraffic = sc.hasTraffic[:nw]
	sc.once = sc.once[:nw]
	sc.many = sc.many[:nw]
	sc.parentTx = sc.parentTx[:nw]
	for i := range sc.hasTraffic {
		sc.hasTraffic[i] = 0
		sc.once[i] = 0
		sc.many[i] = 0
		sc.parentTx[i] = 0
	}
	if cap(sc.childTx) < n {
		sc.txList = make([]int32, 0, n)
		sc.childTx = make([]int32, n)
		sc.txCnt = make([]int, n)
		sc.rxCnt = make([]int, n)
		sc.arrivedAt = make([]int, n)
		sc.qhead = make([]int32, n)
		sc.queues = make([][]Packet, n)
	}
	sc.childTx = sc.childTx[:n]
	sc.txCnt = sc.txCnt[:n]
	sc.rxCnt = sc.rxCnt[:n]
	sc.arrivedAt = sc.arrivedAt[:n]
	sc.qhead = sc.qhead[:n]
	sc.queues = sc.queues[:n]
	for v := 0; v < n; v++ {
		sc.txCnt[v] = 0
		sc.qhead[v] = 0
		sc.queues[v] = sc.queues[v][:0]
	}
}

// ccShardWorkers runs the persistent contention workers of a sharded run.
// Each worker owns a contiguous word-aligned receiver range: it scans the
// slot's full transmitter words but accumulates contention only into the
// once/many counter words covering its own range, so every scratch word is
// written by exactly one worker. The main loop publishes the slot index on
// each worker's channel and joins the WaitGroup before resolving
// receptions sequentially.
type ccShardWorkers struct {
	work []chan int
	done sync.WaitGroup
}

func (k *ConvergecastKernel) startShardWorkers(sc *ccFastScratch, ranges [][2]int) *ccShardWorkers {
	w := &ccShardWorkers{work: make([]chan int, len(ranges))}
	for si, r := range ranges {
		ch := make(chan int, 1)
		w.work[si] = ch
		go func(lo, hi int, ch chan int) {
			for i := range ch {
				k.contentionRange(sc, i, lo, hi)
				w.done.Done()
			}
		}(r[0], r[1], ch)
	}
	return w
}

// contentionRange accumulates frame-slot i's per-receiver contention into
// the once/many saturating counter, restricted to receivers in [lo, hi)
// (word-aligned, hi == n allowed): after the pass, a Receive-role node u
// has once∧¬many set iff exactly one of its neighbours transmitted, and
// many set iff two or more did — all the channel model distinguishes. The
// counter is word-parallel, so on dense graphs each transmitter costs a
// handful of word ops per adjacency word with no per-receiver writes at
// all; on compressed graphs the sorted CSR row is walked bit by bit.
//
//ttdc:hotpath runs once per shard per occupied slot of every convergecast run; pure word arithmetic over pooled rows
func (k *ConvergecastKernel) contentionRange(sc *ccFastScratch, i, lo, hi int) {
	rxRow := k.rxRole[i*k.nw : (i+1)*k.nw]
	if k.adjW != nil {
		// Dense: word-major over the flat adjacency rows, so the counter
		// pair for each receiver word accumulates in registers and is
		// stored once.
		nw := k.nw
		loW, hiW := lo>>6, (hi+wordBits-1)>>6
		for wi := loW; wi < hiW; wi++ {
			rx := rxRow[wi]
			if rx == 0 {
				continue // counter words stay zero from the last clear
			}
			var once, many uint64
			for _, v := range sc.txList {
				t := k.adjW[int(v)*nw+wi] & rx
				many |= once & t
				once ^= t
			}
			sc.once[wi] = once
			sc.many[wi] = many
		}
		return
	}
	for _, v32 := range sc.txList {
		for _, u32 := range k.g.NeighborRow(int(v32)) {
			u := int(u32)
			if u < lo {
				continue
			}
			if u >= hi {
				break
			}
			b := uint64(1) << uint(u&63)
			if rxRow[u>>6]&b == 0 {
				continue
			}
			sc.many[u>>6] |= sc.once[u>>6] & b
			sc.once[u>>6] ^= b
		}
	}
}

// Run executes one convergecast run on the kernel's triple. The arrival
// RNG stream, the ascending-receiver resolution order, and the Summary
// contents replay the per-node loop exactly, so the result is
// reflect.DeepEqual-identical to that loop's on the same inputs — at every
// cfg.Shards value (pinned by the differential matrix and fuzz harness in
// this package). Fields of cfg outside the core model (Channel, Clock,
// Tracer) must be unset, and cfg.Sink must match the kernel's sink.
//
// The ideal channel draws no randomness, so the RNG is consumed by packet
// generation alone, in the same (node, slot) order as the per-node loop.
func (k *ConvergecastKernel) Run(cfg ConvergecastConfig) (*ConvergecastResult, error) {
	if cfg.Sink != k.sink {
		return nil, fmt.Errorf("sim: kernel built for sink %d, config has %d", k.sink, cfg.Sink)
	}
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", cfg.Frames)
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("sim: negative rate")
	}
	if !cfg.Channel.ideal() || cfg.Clock != nil || cfg.Tracer != nil {
		return nil, fmt.Errorf("sim: convergecast kernel only runs the ideal-channel fast path")
	}
	maxQ, em, rateAt, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	n, L, nw, sink, parent := k.n, k.l, k.nw, k.sink, k.parent
	// The RNG lives in a stack value (not behind NewRNG's heap pointer) so
	// the inlined draw calls in the generation loop keep its state in a
	// register instead of a load/store per draw. Same generator, same
	// stream.
	rng := *stats.NewRNG(cfg.Seed)
	res := &ConvergecastResult{Protocol: ScheduleProtocol{S: k.s}.Name(), EnergyPerNode: make([]float64, n)}
	totalSlots := (cfg.WarmupFrames + cfg.Frames) * L
	warmupSlots := cfg.WarmupFrames * L

	sc := ccFastPool.Get().(*ccFastScratch)
	defer ccFastPool.Put(sc)
	sc.reset(n, nw)
	for v := 0; v < n; v++ {
		sc.rxCnt[v] = k.rxPerFrame[v] * (cfg.WarmupFrames + cfg.Frames)
	}

	var workers *ccShardWorkers
	if ranges := shardRanges(n, resolveShards(cfg.Shards, n)); len(ranges) > 1 {
		//lint:ignore poolescape workers hold sc only between the channel send and wg.Done of each slot; the deferred close + drained WaitGroup below retires every worker before the deferred Put runs
		workers = k.startShardWorkers(sc, ranges)
		defer func() {
			for _, ch := range workers.work {
				close(ch)
			}
		}()
	}

	// The Poisson inversion limit e^-rate depends only on the slot's rate,
	// which is constant (or phase-periodic), so it is hoisted out of the
	// per-node draw — the RNG stream is untouched, only the redundant
	// math.Exp per (node, slot) goes away.
	lastRate := math.Inf(-1)
	limit := 0.0
	noArrival := uint64(0)
	queues := sc.queues
	for slot := 0; slot < totalSlots; slot++ {
		measuring := slot >= warmupSlots
		rate := rateAt(slot)
		// Packet generation: the same RNG consumption as the reference
		// loop's poissonDraw calls, one draw per node v ≠ sink ascending,
		// then the inversion's extra draws at each node with an arrival.
		if rate > 0 {
			if rate != lastRate {
				lastRate = rate
				limit = math.Exp(-rate)
				// The RNG's Float64 is float64(Uint64()>>11) / 2⁵³ with an
				// exactly-representable 53-bit mantissa, and limit·2⁵³ only
				// shifts limit's exponent, so `draw > limit` is decidable in
				// the integer domain: Uint64()>>11 > ⌊limit·2⁵³⌋, that is
				// Uint64() > ⌊limit·2⁵³⌋<<11 | 0x7FF. At limit == 1 no draw
				// arrives.
				noArrival = math.MaxUint64
				if limitBits := uint64(math.Ldexp(limit, 53)); limitBits < 1<<53 {
					noArrival = limitBits<<11 | 0x7FF
				}
			}
			// Scan the draws of [0, sink) then (sink, n) for the few nodes
			// with an arrival; the nodes in between draw nothing else.
			for _, span := range [2][2]int{{0, sink}, {sink + 1, n}} {
				for v, end := span[0], span[1]; v < end; v++ {
					skipped, draw := rng.ScanAbove(end-v, noArrival)
					if v += skipped; v == end {
						break
					}
					// Rare path: ≥1 arrival at v. Reconstruct the draw as
					// Float64 would have returned it and continue the
					// inversion product exactly as the reference loop does.
					kk := 0
					for p := float64(draw>>11) / (1 << 53); p > limit; kk++ {
						p *= rng.Float64()
					}
					for ; kk > 0; kk-- {
						if measuring {
							res.Generated++
						}
						qlen := len(queues[v]) - int(sc.qhead[v])
						if qlen >= maxQ {
							if measuring {
								res.Dropped++
							}
							continue
						}
						if qlen == 0 {
							sc.arrivedAt[v] = slot
							sc.hasTraffic[v>>6] |= uint64(1) << uint(v&63)
						}
						queues[v] = append(queues[v], Packet{Origin: v, Created: slot})
					}
				}
			}
		}
		i := slot % L
		elig := k.txElig[i*nw : (i+1)*nw]
		// Transmitters this slot: traffic ∧ eligibility, one AND per word.
		// Each transmitter also marks its parent and records itself as that
		// parent's transmitting child — the only receivers the resolution
		// pass must visit individually.
		sc.txList = sc.txList[:0]
		for j := 0; j < nw; j++ {
			w := sc.hasTraffic[j] & elig[j]
			for w != 0 {
				v := j*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				sc.txCnt[v]++
				sc.txList = append(sc.txList, int32(v))
				p := parent[v]
				sc.parentTx[p>>6] |= uint64(1) << uint(p&63)
				sc.childTx[p] = int32(v)
			}
		}
		if len(sc.txList) == 0 {
			continue
		}
		// Count per-receiver contention into the once/many words: across
		// the worker ranges when sharded, in one pass otherwise.
		if workers != nil {
			workers.done.Add(len(workers.work))
			for _, ch := range workers.work {
				ch <- i
			}
			workers.done.Wait()
		} else {
			k.contentionRange(sc, i, 0, n)
		}
		// Resolve receptions in ascending receiver order — the order that
		// fixes the legacy loop's Summary contents. Collisions are pure
		// popcounts over the many words. Deliveries happen exactly at
		// receivers that are the parent of a transmitter AND heard exactly
		// one transmitting neighbour — which is then necessarily that child
		// (a second transmitting neighbour would have set many), so the
		// sender needs no search and overhears drop out word-parallel. This
		// phase pops and pushes queues, so it stays sequential at every
		// shard count.
		for j := 0; j < nw; j++ {
			many := sc.many[j]
			if measuring && many != 0 {
				res.Collisions += bits.OnesCount64(many)
			}
			w := sc.once[j] &^ many & sc.parentTx[j]
			sc.once[j] = 0
			sc.many[j] = 0
			sc.parentTx[j] = 0
			for w != 0 {
				u := j*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				sdr := int(sc.childTx[u])
				h := sc.qhead[sdr]
				pkt := queues[sdr][h]
				h++
				if measuring {
					res.HopLatency.Add(float64(slot - sc.arrivedAt[sdr] + 1))
				}
				if int(h) < len(queues[sdr]) {
					sc.arrivedAt[sdr] = slot + 1
					if h >= 32 && int(h)*2 >= len(queues[sdr]) {
						// Compact the drained prefix so long-lived queues
						// keep reusing one backing array instead of
						// growing per pop (the 6146 allocs/op of the
						// pre-kernel bench were almost entirely this).
						q := queues[sdr]
						queues[sdr] = q[:copy(q, q[h:])]
						h = 0
					}
				} else {
					queues[sdr] = queues[sdr][:0]
					h = 0
					sc.hasTraffic[sdr>>6] &^= uint64(1) << uint(sdr&63)
				}
				sc.qhead[sdr] = h
				if u == sink {
					if measuring {
						res.Delivered++
						res.Latency.Add(float64(slot - pkt.Created + 1))
					}
				} else if qlen := len(queues[u]) - int(sc.qhead[u]); qlen < maxQ {
					if qlen == 0 {
						sc.arrivedAt[u] = slot + 1
						sc.hasTraffic[u>>6] |= uint64(1) << uint(u&63)
					}
					queues[u] = append(queues[u], pkt)
				} else if measuring {
					res.Dropped++
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		res.InFlight += len(queues[v]) - int(sc.qhead[v])
	}
	finishConvergecast(res, em, sc.txCnt, sc.rxCnt, totalSlots)
	return res, nil
}
