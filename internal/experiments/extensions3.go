package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablewriter"
	"repro/internal/topology"
)

// runE16 — neighbour discovery: the one-frame corollary. Topology
// transparency guarantees each node a collision-free slot toward every
// neighbour once per frame even when ALL nodes transmit — which is exactly
// the neighbour-discovery workload (everyone beaconing). So a TT schedule
// completes full bidirectional discovery within the first frame on every
// topology of the class, across deployment shapes; contention beaconing
// enjoys no bound.
func runE16() (*Result, error) {
	res := &Result{Pass: true}
	const n, d = 16, 3
	ns, err := schedcache.BuildBase("polynomial", n, d)
	if err != nil {
		return nil, err
	}
	duty, err := core.Construct(ns, core.ConstructOptions{AlphaT: 3, AlphaR: 6, D: d})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(16)
	shapes := []struct {
		name string
		g    *topology.Graph
	}{
		{"regular(16,3)", topology.Regularish(16, 3)},
		{"corridor(2x8)", trim(topology.Corridor(2, 8), d, rng)},
		{"scale-free", trim(topology.ScaleFreeBounded(16, 1, d, rng), d, rng)},
		{"communities", trim(topology.TwoCommunities(8, 8, 2, d, rng), d, rng)},
	}
	tab := tablewriter.New("Neighbour discovery (all nodes beaconing): slots to discover every directed link",
		"topology", "links", "TT non-sleeping (L=?)", "TT duty (L=?)", "ALOHA p=0.3 (same slots)")
	for _, sh := range shapes {
		if sh.g.MaxDegree() > d {
			return nil, fmt.Errorf("E16: %s degree %d exceeds class", sh.name, sh.g.MaxDegree())
		}
		nsRes, err := sim.RunDiscovery(sh.g, sim.ScheduleProtocol{S: ns}, 1, sim.DefaultEnergy(), 1)
		if err != nil {
			return nil, err
		}
		dutyRes, err := sim.RunDiscovery(sh.g, sim.ScheduleProtocol{S: duty}, 1, sim.DefaultEnergy(), 1)
		if err != nil {
			return nil, err
		}
		budget := duty.L() // give ALOHA the same slot budget as the duty frame
		alRes, err := sim.RunDiscovery(sh.g, sim.NewAloha(0.3, 7), budget, sim.DefaultEnergy(), 7)
		if err != nil {
			return nil, err
		}
		if nsRes.DiscoveredLinks != nsRes.TotalLinks {
			res.fail("%s: non-sleeping schedule missed links in frame 1", sh.name)
		}
		if dutyRes.DiscoveredLinks != dutyRes.TotalLinks {
			res.fail("%s: duty-cycled schedule missed links in frame 1", sh.name)
		}
		alCell := "incomplete"
		if alRes.CompleteSlot >= 0 {
			alCell = fmt.Sprintf("slot %d", alRes.CompleteSlot)
		}
		tab.AddRow(sh.name, nsRes.TotalLinks,
			fmt.Sprintf("slot %d of %d", nsRes.CompleteSlot, ns.L()),
			fmt.Sprintf("slot %d of %d", dutyRes.CompleteSlot, duty.L()),
			alCell)
	}
	res.Table = tab
	if res.Pass {
		res.note("Both TT schedules discover every directed link within their first frame on every deployment shape — the guarantee is the saturation worst case itself. ALOHA beaconing, given the same slot budget, carries no such bound (and often fails on hub nodes).")
	}
	return res, nil
}

// trim enforces the class degree bound on generated shapes.
func trim(g *topology.Graph, d int, rng *stats.RNG) *topology.Graph {
	g.EnforceMaxDegree(d, rng)
	return g
}
