package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// FloodConfig parameterizes a dissemination (network-wide broadcast) run.
type FloodConfig struct {
	// Source is the node holding the message at slot 0.
	Source int
	// MaxFrames bounds the run; dissemination usually completes far
	// earlier under a topology-transparent schedule (within eccentricity
	// many frames).
	MaxFrames int
	// Energy is the radio energy model; zero value means DefaultEnergy.
	Energy EnergyModel
	// Channel adds non-collision losses; the zero value is the paper's
	// ideal channel.
	Channel Channel
	// Clock, when non-nil, models imperfect slot synchronization.
	Clock *ClockModel
	// Seed drives channel randomness (unused on the ideal channel).
	Seed uint64
}

// FloodResult reports a dissemination run.
type FloodResult struct {
	// Protocol names the MAC that was driven.
	Protocol string
	// Covered is the number of nodes holding the message at the end.
	Covered int
	// CompletionSlot is the absolute slot by which every node held the
	// message, or -1 if the run ended first.
	CompletionSlot int
	// FirstReception[v] is the absolute slot node v first received the
	// message (0 for the source, -1 if never).
	FirstReception []int
	// TotalEnergy is the radio energy spent by all nodes, in joules.
	TotalEnergy float64
	// ActiveFraction is the fraction of node-slots spent awake.
	ActiveFraction float64
	// Collisions counts (receiver, slot) pairs lost to simultaneous
	// transmissions.
	Collisions int
}

// RunFlood simulates network-wide dissemination: every node holding the
// message offers it in every transmit opportunity the protocol grants, and
// a listening node receives it when exactly one of its neighbours
// transmits. Under a topology-transparent schedule the frontier is
// guaranteed to advance at least one hop per frame (the guaranteed slot of
// each frontier link has no scheduled interferer at all, so a fortiori no
// transmitting one), hence completion within eccentricity(source) frames.
func RunFlood(g *topology.Graph, proto Protocol, cfg FloodConfig) (*FloodResult, error) {
	n := g.N()
	if cfg.Source < 0 || cfg.Source >= n {
		return nil, fmt.Errorf("sim: flood source %d out of range", cfg.Source)
	}
	if cfg.MaxFrames < 1 {
		return nil, fmt.Errorf("sim: MaxFrames = %d", cfg.MaxFrames)
	}
	em := cfg.Energy
	if em == (EnergyModel{}) {
		em = DefaultEnergy()
	}
	if err := cfg.Channel.validate(); err != nil {
		return nil, err
	}
	var clock *clockState
	if cfg.Clock != nil {
		var err error
		if clock, err = newClockState(*cfg.Clock, n); err != nil {
			return nil, err
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	has := make([]bool, n)
	has[cfg.Source] = true
	res := &FloodResult{
		Protocol:       proto.Name(),
		Covered:        1,
		CompletionSlot: -1,
		FirstReception: make([]int, n),
	}
	for i := range res.FirstReception {
		res.FirstReception[i] = -1
	}
	res.FirstReception[cfg.Source] = 0

	L := proto.FrameLen()
	totalSlots := cfg.MaxFrames * L
	awake := 0
	roles := make([]core.Role, n)
	transmitting := make([]bool, n)
	senderBuf := make([]int, 0, n)
	for slot := 0; slot < totalSlots && res.Covered < n; slot++ {
		for v := 0; v < n; v++ {
			roles[v] = proto.Role(v, slot, has[v])
			transmitting[v] = has[v] && roles[v] == core.Transmit
			isTx := transmitting[v]
			rx := roles[v] == core.Receive
			res.TotalEnergy += em.slotEnergy(isTx, rx)
			if isTx || rx {
				awake++
			}
		}
		for v := 0; v < n; v++ {
			if has[v] || roles[v] != core.Receive {
				continue
			}
			senders := senderBuf[:0]
			g.ForEachNeighbor(v, func(u int) bool {
				if transmitting[u] {
					senders = append(senders, u)
				}
				return true
			})
			pick, collided := cfg.Channel.resolve(senders, rng)
			if collided {
				res.Collisions++
			}
			if pick < 0 {
				continue
			}
			if clock != nil && !clock.aligned(senders[pick], v, slot) {
				continue
			}
			has[v] = true
			res.Covered++
			res.FirstReception[v] = slot
			if res.Covered == n {
				res.CompletionSlot = slot
			}
		}
	}
	slotsRun := totalSlots
	if res.CompletionSlot >= 0 {
		slotsRun = res.CompletionSlot + 1
	}
	res.ActiveFraction = float64(awake) / float64(n*slotsRun)
	return res, nil
}

// Eccentricity returns the greatest BFS distance from src to any node of a
// connected graph, the analytic frame bound for flood completion under a
// topology-transparent schedule. It returns -1 if some node is unreachable.
func Eccentricity(g *topology.Graph, src int) int {
	_, dist := g.BFSTree(src)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
