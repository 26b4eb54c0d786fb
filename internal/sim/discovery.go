package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// DiscoveryResult reports a neighbour-discovery run: every node broadcasts
// HELLO beacons in its transmit opportunities, and each node must learn of
// each neighbour by hearing it collision-free at least once.
type DiscoveryResult struct {
	// Protocol names the MAC that was driven.
	Protocol string
	// CompleteSlot is the absolute slot by which every directed link had
	// been discovered, or -1 if the run ended first.
	CompleteSlot int
	// DiscoveredLinks counts directed links discovered; TotalLinks is the
	// number of directed links in the topology.
	DiscoveredLinks, TotalLinks int
	// LinkDiscoverySlots summarizes, over directed links, the slot at
	// which each was discovered.
	LinkDiscoverySlots stats.Summary
	// TotalEnergy is the radio energy spent by all nodes (joules).
	TotalEnergy float64
	// Collisions counts (receiver, slot) collision events.
	Collisions int
}

// RunDiscovery simulates neighbour discovery: all nodes beacon in every
// transmit opportunity (everyone always has "traffic"), and a directed link
// u→v is discovered when v hears u collision-free. Under a
// topology-transparent schedule for a class containing the topology, every
// directed link is guaranteed discovery within the FIRST frame — the
// saturation worst case is exactly the discovery workload. Contention
// protocols enjoy no such bound.
func RunDiscovery(g *topology.Graph, proto Protocol, maxFrames int, em EnergyModel, seed uint64) (*DiscoveryResult, error) {
	n := g.N()
	if maxFrames < 1 {
		return nil, fmt.Errorf("sim: maxFrames = %d", maxFrames)
	}
	res := &DiscoveryResult{
		Protocol:     proto.Name(),
		CompleteSlot: -1,
		TotalLinks:   2 * g.EdgeCount(),
	}
	known := make(map[[2]int]bool, res.TotalLinks)
	rng := stats.NewRNG(seed)
	_ = rng

	L := proto.FrameLen()
	totalSlots := maxFrames * L
	roles := make([]core.Role, n)
	transmitting := make([]bool, n)
	for slot := 0; slot < totalSlots && res.DiscoveredLinks < res.TotalLinks; slot++ {
		for v := 0; v < n; v++ {
			roles[v] = proto.Role(v, slot, true) // beacons: always have traffic
			transmitting[v] = roles[v] == core.Transmit
			res.TotalEnergy += em.slotEnergy(transmitting[v], roles[v] == core.Receive)
		}
		for v := 0; v < n; v++ {
			if roles[v] != core.Receive {
				continue
			}
			sender := -1
			count := 0
			g.ForEachNeighbor(v, func(u int) bool {
				if transmitting[u] {
					count++
					sender = u
				}
				return true
			})
			switch {
			case count == 1:
				key := [2]int{sender, v}
				if !known[key] {
					known[key] = true
					res.DiscoveredLinks++
					res.LinkDiscoverySlots.Add(float64(slot))
					if res.DiscoveredLinks == res.TotalLinks {
						res.CompleteSlot = slot
					}
				}
			case count > 1:
				res.Collisions++
			}
		}
	}
	return res, nil
}
