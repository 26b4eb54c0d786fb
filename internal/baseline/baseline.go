// Package baseline implements the comparison schemes the paper's related
// work positions topology-transparent duty cycling against:
//
//   - ColoringTDMA: a topology-DEPENDENT schedule built by greedy distance-2
//     coloring of a known graph. Collision-free and short-framed on the
//     topology it was built for, but its guarantees evaporate when the
//     topology changes — the foil for topology transparency.
//   - RandomDutyCycle: uncoordinated random sleeping (in the spirit of
//     Dousse-Mannersalo-Thiran), which saves energy but guarantees nothing.
//   - Symmetric: the (α, α)-schedule special case studied by
//     Dukes-Colbourn-Syrotiuk [6], obtained here by running the paper's
//     Construct with αT = αR.
package baseline

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ColoringTDMA builds a topology-dependent TDMA schedule for the given
// graph: nodes are greedily assigned colors such that no two nodes within
// distance 2 share a color (the standard broadcast-scheduling constraint —
// distance-2 separation prevents both direct and hidden-terminal
// collisions), then slot c carries T[c] = {nodes with color c} and
// R[c] = everyone else.
//
// On the graph it was built for, every transmission is collision-free and
// each node transmits once per frame; the frame length is the number of
// colors used (at most Δ² + 1 by the greedy bound, often far fewer). On a
// different graph all bets are off — which experiment E11 demonstrates.
func ColoringTDMA(g *topology.Graph) (*core.Schedule, error) {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	numColors := 0
	forbidden := bitset.New(n + 1)
	for v := 0; v < n; v++ {
		forbidden.Clear()
		// Colors of all nodes within distance 2.
		g.ForEachNeighbor(v, func(u int) bool {
			if colors[u] >= 0 {
				forbidden.Add(colors[u])
			}
			g.ForEachNeighbor(u, func(w int) bool {
				if w != v && colors[w] >= 0 {
					forbidden.Add(colors[w])
				}
				return true
			})
			return true
		})
		c := 0
		for forbidden.Contains(c) {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	t := make([][]int, numColors)
	for v, c := range colors {
		t[c] = append(t[c], v)
	}
	s, err := core.NonSleeping(n, t)
	if err != nil {
		return nil, fmt.Errorf("baseline: coloring TDMA: %w", err)
	}
	return s, nil
}

// RandomDutyCycle builds an uncoordinated random schedule of frame length
// l: each node independently transmits with probability pTx and otherwise
// listens with probability pRx in each slot (sleeping the rest of the
// time). No topology-transparency or connectivity guarantee exists; the
// experiments use it to show what coordination buys.
func RandomDutyCycle(n, l int, pTx, pRx float64, rng *stats.RNG) (*core.Schedule, error) {
	if n < 1 || l < 1 {
		return nil, fmt.Errorf("baseline: RandomDutyCycle(n=%d, l=%d)", n, l)
	}
	if pTx < 0 || pRx < 0 || pTx > 1 || pRx > 1 {
		return nil, fmt.Errorf("baseline: probabilities out of range")
	}
	t := make([]*bitset.Set, l)
	r := make([]*bitset.Set, l)
	for i := 0; i < l; i++ {
		t[i] = bitset.New(n)
		r[i] = bitset.New(n)
		for x := 0; x < n; x++ {
			if rng.Bool(pTx) {
				t[i].Add(x)
			} else if rng.Bool(pRx) {
				r[i].Add(x)
			}
		}
	}
	return core.FromSets(n, t, r)
}

// Symmetric builds the (α, α)-schedule of Dukes-Colbourn-Syrotiuk's
// setting from a topology-transparent non-sleeping schedule, using the
// paper's Construct with equal transmitter and receiver caps. The paper
// notes such schedules are the right choice when transmitting and
// receiving cost the same order of magnitude.
func Symmetric(ns *core.Schedule, d, alpha int) (*core.Schedule, error) {
	return core.Construct(ns, core.ConstructOptions{
		AlphaT: alpha,
		AlphaR: alpha,
		D:      d,
	})
}
