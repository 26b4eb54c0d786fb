package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// The reference implementations the fast paths are pinned to. They live
// in tests because nothing in production runs them: the differential
// matrix, FuzzSimEquivalence and the Legacy side of the Legacy/Fast
// benchmark pairs are their only callers.

// runSaturationReference is the original slot-by-slot, node-by-node
// saturation loop: the trusted differential reference for the
// struct-of-arrays saturation kernel (the same kernel-pinning discipline
// internal/core uses for its naive verification kernels).
func runSaturationReference(g *topology.Graph, s *core.Schedule, frames int, em EnergyModel) (*SaturationResult, error) {
	if g.N() > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", g.N(), s.N())
	}
	if frames < 1 {
		return nil, fmt.Errorf("sim: frames = %d", frames)
	}
	n := g.N()
	L := s.L()
	res := &SaturationResult{
		Frames:        frames,
		SlotsPerFrame: L,
	}
	transmitting := make([]bool, n)
	// counts[u*n+v] counts collision-free u→v deliveries; lastDelivery[u*n+v]
	// is the absolute slot of the last u→v delivery, or -1 before the first.
	counts := make([]int, n*n)
	lastDelivery := make([]int, n*n)
	for i := range lastDelivery {
		lastDelivery[i] = -1
	}
	txSlots, rxSlots := 0, 0
	for f := 0; f < frames; f++ {
		for i := 0; i < L; i++ {
			abs := f*L + i
			for u := 0; u < n; u++ {
				role := s.RoleOf(u, i)
				transmitting[u] = role == core.Transmit
				switch role {
				case core.Transmit:
					txSlots++
				case core.Receive:
					rxSlots++
				}
			}
			for v := 0; v < n; v++ {
				if s.RoleOf(v, i) != core.Receive {
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
					key := sender*n + v
					counts[key]++
					if last := lastDelivery[key]; last >= 0 {
						if gap := abs - last - 1; gap > res.MaxInterDeliveryGap {
							res.MaxInterDeliveryGap = gap
						}
					}
					lastDelivery[key] = abs
				case count > 1:
					res.CollisionSlots++
				}
			}
		}
	}
	// Gather the flat counters into u-major link order and derive every
	// reported field through the finalizer shared with the fast path.
	var links []int
	for u := 0; u < n; u++ {
		g.ForEachNeighbor(u, func(v int) bool {
			links = append(links, counts[u*n+v])
			return true
		})
	}
	finishSaturation(res, g, em, links, txSlots, rxSlots)
	return res, nil
}

// referenceProtocol hides a ScheduleProtocol from RunConvergecastProtocol's
// fast-path dispatch: any protocol that is not a ScheduleProtocol takes the
// per-node loop, and the embedded methods keep the MAC itself unchanged.
type referenceProtocol struct{ ScheduleProtocol }

// runConvergecastReference is RunConvergecast through the per-node loop:
// the same validation, in the same order, then the reference slot loop.
func runConvergecastReference(g *topology.Graph, s *core.Schedule, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	if g.N() > s.N() {
		return nil, fmt.Errorf("sim: graph has %d nodes but schedule supports %d", g.N(), s.N())
	}
	return RunConvergecastProtocol(g, referenceProtocol{ScheduleProtocol{S: s}}, cfg)
}
