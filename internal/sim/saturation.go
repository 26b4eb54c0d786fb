package sim

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// SaturationResult reports a saturation run: every node transmitted in
// every slot it was eligible, the paper's worst-case traffic assumption.
type SaturationResult struct {
	// Frames is the number of whole frames simulated.
	Frames int
	// SlotsPerFrame is the schedule's frame length.
	SlotsPerFrame int
	// Delivered[u][v] counts slots in which v (a neighbour of u) received
	// u's transmission collision-free, over the whole run.
	Delivered map[int]map[int]int
	// MinLinkPerFrame is the smallest per-frame delivery count over all
	// directed links u→v of the topology.
	MinLinkPerFrame float64
	// AvgLinkPerFrame is the mean per-frame delivery count over all
	// directed links.
	AvgLinkPerFrame float64
	// MinLinkThroughput and AvgLinkThroughput divide the above by the frame
	// length, making them directly comparable to Thr^min and the per-pair
	// contribution of Thr^ave.
	MinLinkThroughput float64
	AvgLinkThroughput float64
	// CollisionSlots counts (receiver, slot) pairs in which two or more
	// neighbours transmitted simultaneously.
	CollisionSlots int
	// MaxInterDeliveryGap is the largest observed wait, in slots, between
	// consecutive deliveries on any single directed link (0 when no link
	// delivered twice). Under saturation it is directly comparable to the
	// analytical worst-case hop latency bound.
	MaxInterDeliveryGap int
	// TotalEnergy is the radio energy spent by all nodes, in joules.
	TotalEnergy float64
	// EnergyPerDelivery is TotalEnergy divided by total deliveries (Inf if
	// nothing was delivered).
	EnergyPerDelivery float64
	// ActiveFraction is the measured fraction of node-slots spent awake.
	ActiveFraction float64
}

// RunSaturation simulates the worst-case load: every node of g transmits a
// (broadcast) packet in every slot the schedule lets it, and every eligible
// receiver listens. A delivery u→v is recorded when v listens and u is the
// only transmitting neighbour of v. If the schedule is topology-transparent
// for a class containing g, every directed link is guaranteed at least one
// delivery per frame.
//
// RunSaturation runs the struct-of-arrays fast path, pinned field for field
// to a per-node reference loop by the differential tests in this package.
// Campaigns that run many topologies against one schedule should build a
// SaturationKernel once and call Run per topology.
func RunSaturation(g *topology.Graph, s *core.Schedule, frames int, em EnergyModel) (*SaturationResult, error) {
	k, err := NewSaturationKernel(s, g.N())
	if err != nil {
		return nil, err
	}
	return k.Run(g, frames, em)
}

// RunSaturationSharded is RunSaturation with the receiver-major frame
// resolution split across shards (0 or 1 sequential, negative one per
// CPU). Results are byte-identical at every shard count; see
// SaturationKernel.RunSharded.
func RunSaturationSharded(g *topology.Graph, s *core.Schedule, frames int, em EnergyModel, shards int) (*SaturationResult, error) {
	k, err := NewSaturationKernel(s, g.N())
	if err != nil {
		return nil, err
	}
	return k.RunSharded(g, frames, em, shards)
}

// GuaranteedPerLink computes, for every directed edge u→v of g, the
// analytical number of guaranteed collision-free deliveries per frame under
// schedule s with v's actual neighbourhood: |𝒯(u, v, N(v)-{u})|. In a
// saturation run the simulator must observe exactly these counts, because
// with every node transmitting whenever eligible a delivery happens in
// precisely the guaranteed slots.
func GuaranteedPerLink(g *topology.Graph, s *core.Schedule) map[int]map[int]int {
	n := g.N()
	out := make(map[int]map[int]int, n)
	for u := 0; u < n; u++ {
		out[u] = make(map[int]int)
		for _, v := range g.Neighbors(u) {
			var others []int
			for _, w := range g.Neighbors(v) {
				if w != u {
					others = append(others, w)
				}
			}
			out[u][v] = s.TSlots(u, v, others).Count()
		}
	}
	return out
}
