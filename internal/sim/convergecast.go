package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Packet is a unit of data travelling hop-by-hop toward the sink.
type Packet struct {
	// Origin is the node that generated the packet.
	Origin int
	// Created is the absolute slot of generation.
	Created int
}

// ConvergecastConfig parameterizes a data-collection run.
type ConvergecastConfig struct {
	// Sink is the collection node (root of the routing tree).
	Sink int
	// Rate is the per-node packet generation rate in packets per slot
	// (Poisson arrivals). The sink generates nothing.
	Rate float64
	// Frames is the number of protocol frames to simulate.
	Frames int
	// MaxQueue bounds each node's packet queue; arrivals beyond it are
	// dropped and counted. Zero means 64.
	MaxQueue int
	// Seed drives the arrival process.
	Seed uint64
	// Energy is the radio energy model; zero value means DefaultEnergy.
	Energy EnergyModel
	// WarmupFrames are simulated but excluded from statistics (queues fill,
	// the system reaches steady state). Zero means none.
	WarmupFrames int
	// Channel adds non-collision losses; the zero value is the paper's
	// ideal channel (and changes nothing, bit-for-bit).
	Channel Channel
	// Clock, when non-nil, models imperfect slot synchronization: a hop is
	// only decodable when sender and receiver are within the guard band.
	Clock *ClockModel
	// Phases, when non-empty, makes traffic time-varying: the run cycles
	// through the phases (each lasting Slots slots at the given rate),
	// ignoring Rate. Used for bursty-load experiments.
	Phases []TrafficPhase
	// Tracer, when non-nil, receives slot-level events (generation,
	// transmissions, deliveries, collisions, drops) for debugging and
	// post-mortem analysis.
	Tracer trace.Tracer
	// Shards splits the fast path's per-slot contention scatter across
	// goroutines owning word-aligned receiver ranges: 0 or 1 runs
	// sequentially, negative uses one shard per CPU. Results are
	// byte-identical at every shard count (the RNG-consuming generation
	// and the queue-mutating resolution stay sequential; only the
	// order-insensitive contention counting fans out). Ignored by the
	// per-node loop.
	Shards int
}

// TrafficPhase is one segment of a time-varying load pattern.
type TrafficPhase struct {
	// Slots is the phase duration.
	Slots int
	// Rate is the per-node Poisson rate during the phase.
	Rate float64
}

// ConvergecastResult reports a data-collection run.
type ConvergecastResult struct {
	// Protocol names the MAC that was driven.
	Protocol string
	// Generated, Delivered, Dropped count packets after warmup. Delivered
	// means arrived at the sink.
	Generated, Delivered, Dropped int
	// InFlight is the number of packets still queued at the end.
	InFlight int
	// Latency summarizes sink-arrival latencies in slots.
	Latency stats.Summary
	// TotalEnergy is the radio energy spent by all nodes (joules),
	// including warmup.
	TotalEnergy float64
	// EnergyPerNode breaks TotalEnergy down by node — feed it to
	// stats.Gini for the §7 balance question on real workloads.
	EnergyPerNode []float64
	// EnergyPerDelivered is TotalEnergy / Delivered (0 when nothing
	// delivered).
	EnergyPerDelivered float64
	// DeliveryRatio is Delivered / Generated (1 when nothing generated).
	DeliveryRatio float64
	// ActiveFraction is the fraction of node-slots spent awake.
	ActiveFraction float64
	// Collisions counts slots lost to simultaneous transmissions at some
	// receiver.
	Collisions int
}

// RunConvergecast simulates Poisson data collection toward a sink under a
// schedule-driven MAC. It is shorthand for RunConvergecastProtocol with
// ScheduleProtocol{s}.
func RunConvergecast(g *topology.Graph, s *core.Schedule, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	if g.N() > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", g.N(), s.N())
	}
	return RunConvergecastProtocol(g, ScheduleProtocol{S: s}, cfg)
}

// resolve returns the run's queue bound, energy model and slot→rate map:
// the zero-value defaults applied, and constant cfg.Rate or the cycling
// phase pattern when Phases is set.
func (cfg *ConvergecastConfig) resolve() (maxQ int, em EnergyModel, rateAt func(slot int) float64, err error) {
	phaseLen := 0
	for _, ph := range cfg.Phases {
		if ph.Slots < 1 || ph.Rate < 0 {
			return 0, EnergyModel{}, nil, fmt.Errorf("sim: invalid traffic phase %+v", ph)
		}
		phaseLen += ph.Slots
	}
	maxQ = cfg.MaxQueue
	if maxQ == 0 {
		maxQ = 64
	}
	em = cfg.Energy
	if em == (EnergyModel{}) {
		em = DefaultEnergy()
	}
	phases := cfg.Phases
	rate := cfg.Rate
	return maxQ, em, func(slot int) float64 {
		if phaseLen == 0 {
			return rate
		}
		t := slot % phaseLen
		for _, ph := range phases {
			if t < ph.Slots {
				return ph.Rate
			}
			t -= ph.Slots
		}
		return 0 // unreachable
	}, nil
}

// finishConvergecast derives the energy and ratio fields every convergecast
// run reports from the per-node integer role census. Shared between the
// legacy loop and the fast path so the derived floats are structurally
// identical (see energyFromCounts).
func finishConvergecast(res *ConvergecastResult, em EnergyModel, txSlots, rxSlots []int, totalSlots int) {
	n := len(txSlots)
	awake := 0
	for v := 0; v < n; v++ {
		e := energyFromCounts(em, txSlots[v], rxSlots[v], totalSlots-txSlots[v]-rxSlots[v])
		res.EnergyPerNode[v] = e
		res.TotalEnergy += e
		awake += txSlots[v] + rxSlots[v]
	}
	if res.Delivered > 0 {
		res.EnergyPerDelivered = res.TotalEnergy / float64(res.Delivered)
	}
	if res.Generated > 0 {
		res.DeliveryRatio = float64(res.Delivered) / float64(res.Generated)
	} else {
		res.DeliveryRatio = 1
	}
	res.ActiveFraction = float64(awake) / float64(n*totalSlots)
}

// RunConvergecastProtocol simulates Poisson data collection toward a sink.
// Routing uses a BFS tree of g rooted at the sink; each node forwards its
// queue head to its parent whenever the protocol gives it a transmit slot
// (and, for TargetAware protocols, the parent is known to listen). A hop
// succeeds when the parent is in receive mode and hears no other
// transmitting neighbour in that slot (senders learn the outcome
// immediately — an idealized acknowledgment — and retransmit otherwise).
//
// The topology must be connected so every node has a route to the sink.
//
// When the protocol is the schedule-driven MAC and the run uses the paper's
// ideal channel with perfect synchronization and no tracer, the run takes
// the struct-of-arrays fast path (ConvergecastKernel.Run); every other run
// takes the per-node loop. The two are byte-identical where both apply
// (see difftest_test.go).
func RunConvergecastProtocol(g *topology.Graph, proto Protocol, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	n := g.N()
	if cfg.Sink < 0 || cfg.Sink >= n {
		return nil, fmt.Errorf("sim: sink %d out of range", cfg.Sink)
	}
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", cfg.Frames)
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("sim: negative rate")
	}
	parent, dist := g.BFSTree(cfg.Sink)
	for v := 0; v < n; v++ {
		if dist[v] < 0 {
			return nil, fmt.Errorf("sim: node %d cannot reach the sink", v)
		}
	}
	if err := cfg.Channel.validate(); err != nil {
		return nil, err
	}
	if sp, ok := proto.(ScheduleProtocol); ok && cfg.Channel.ideal() && cfg.Clock == nil && cfg.Tracer == nil {
		// One-shot kernel: campaigns that replay one (graph, schedule,
		// sink) triple should build a ConvergecastKernel once and call
		// Run per configuration instead.
		k, err := NewConvergecastKernel(g, sp.S, cfg.Sink)
		if err != nil {
			return nil, err
		}
		return k.Run(cfg)
	}
	var clock *clockState
	if cfg.Clock != nil {
		var err error
		if clock, err = newClockState(*cfg.Clock, n); err != nil {
			return nil, err
		}
	}
	maxQ, em, rateAt, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return runConvergecastLegacy(g, proto, cfg, parent, maxQ, em, clock, rateAt)
}

// runConvergecastLegacy is the original per-node, per-slot loop. It handles
// every protocol and channel extension; the fast path handles the paper's
// core model and is pinned byte-identical to this loop there.
func runConvergecastLegacy(g *topology.Graph, proto Protocol, cfg ConvergecastConfig,
	parent []int, maxQ int, em EnergyModel, clock *clockState, rateAt func(int) float64) (*ConvergecastResult, error) {
	n := g.N()
	rng := stats.NewRNG(cfg.Seed)
	target, _ := proto.(TargetAware)

	queues := make([][]Packet, n)
	res := &ConvergecastResult{Protocol: proto.Name(), EnergyPerNode: make([]float64, n)}
	L := proto.FrameLen()
	totalSlots := (cfg.WarmupFrames + cfg.Frames) * L
	warmupSlots := cfg.WarmupFrames * L
	txSlots := make([]int, n)
	rxSlots := make([]int, n)

	roles := make([]core.Role, n)
	transmitTo := make([]int, n) // -1 = silent this slot
	senderBuf := make([]int, 0, n)
	for slot := 0; slot < totalSlots; slot++ {
		measuring := slot >= warmupSlots
		rate := rateAt(slot)
		// Packet generation (Poisson arrivals).
		if rate > 0 {
			for v := 0; v < n; v++ {
				if v == cfg.Sink {
					continue
				}
				for k := poissonDraw(rng, rate); k > 0; k-- {
					if measuring {
						res.Generated++
					}
					if cfg.Tracer != nil {
						cfg.Tracer.Record(trace.Event{Slot: slot, Kind: trace.Generate, Node: v, Peer: -1})
					}
					if len(queues[v]) >= maxQ {
						if measuring {
							res.Dropped++
						}
						if cfg.Tracer != nil {
							cfg.Tracer.Record(trace.Event{Slot: slot, Kind: trace.Drop, Node: v, Peer: -1})
						}
						continue
					}
					queues[v] = append(queues[v], Packet{Origin: v, Created: slot})
				}
			}
		}
		// Roles and transmission decisions, nodes in ascending order (the
		// contract that keeps contention protocols deterministic).
		for v := 0; v < n; v++ {
			wantTx := v != cfg.Sink && len(queues[v]) > 0
			if wantTx && target != nil && !target.ShouldTransmit(v, parent[v], slot) {
				wantTx = false
			}
			roles[v] = proto.Role(v, slot, wantTx)
			transmitTo[v] = -1
			if wantTx && roles[v] == core.Transmit {
				transmitTo[v] = parent[v]
				if cfg.Tracer != nil {
					cfg.Tracer.Record(trace.Event{Slot: slot, Kind: trace.Transmit, Node: v, Peer: parent[v]})
				}
			}
			switch {
			case transmitTo[v] >= 0:
				txSlots[v]++
			case roles[v] == core.Receive:
				rxSlots[v]++
			}
		}
		// Resolve receptions.
		for v := 0; v < n; v++ {
			if roles[v] != core.Receive {
				continue
			}
			senders := senderBuf[:0]
			g.ForEachNeighbor(v, func(u int) bool {
				if transmitTo[u] >= 0 {
					senders = append(senders, u)
				}
				return true
			})
			pick, collided := cfg.Channel.resolve(senders, rng)
			if collided {
				if measuring {
					res.Collisions++
				}
				if cfg.Tracer != nil {
					cfg.Tracer.Record(trace.Event{Slot: slot, Kind: trace.Collision, Node: senders[0], Peer: v})
				}
			}
			if pick < 0 {
				continue
			}
			sender := senders[pick]
			if clock != nil && !clock.aligned(sender, v, slot) {
				continue // undecodable: slot boundaries drifted apart
			}
			if transmitTo[sender] == v {
				// Successful hop: move the packet.
				if cfg.Tracer != nil {
					cfg.Tracer.Record(trace.Event{Slot: slot, Kind: trace.Deliver, Node: sender, Peer: v})
				}
				pkt := queues[sender][0]
				queues[sender] = queues[sender][1:]
				if v == cfg.Sink {
					if measuring {
						res.Delivered++
						res.Latency.Add(float64(slot - pkt.Created + 1))
					}
				} else if len(queues[v]) < maxQ {
					queues[v] = append(queues[v], pkt)
				} else if measuring {
					res.Dropped++
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		res.InFlight += len(queues[v])
	}
	finishConvergecast(res, em, txSlots, rxSlots, totalSlots)
	return res, nil
}

// poissonDraw samples a Poisson(rate) count by inversion; rate is small in
// all workloads so the loop is short.
func poissonDraw(rng *stats.RNG, rate float64) int {
	limit := math.Exp(-rate)
	k := 0
	p := rng.Float64()
	for p > limit {
		p *= rng.Float64()
		k++
	}
	return k
}
