package topology

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// model is one named topology model, as campaigns and ttdcsim name it: a
// graph on up to n nodes at degree bound d. A seeded model draws from an
// RNG rooted at the caller's seed, so its graphs differ from seed to
// seed; the others are given a nil RNG.
type model struct {
	name   string
	seeded bool
	build  func(n, d int, radius float64, rng *stats.RNG) *Graph
}

var models = []model{
	{name: "regular", build: func(n, d int, _ float64, _ *stats.RNG) *Graph { return Regularish(n, d) }},
	{name: "ring", build: func(n, _ int, _ float64, _ *stats.RNG) *Graph { return Ring(n) }},
	// The smallest square grid with at least n nodes.
	{name: "grid", build: func(n, _ int, _ float64, _ *stats.RNG) *Graph {
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side)
	}},
	// A unit-disk deployment of the given radius, trimmed to degree d.
	{name: "geometric", seeded: true, build: func(n, d int, radius float64, rng *stats.RNG) *Graph {
		g := RandomGeometric(n, radius, rng).Graph
		g.EnforceMaxDegree(d, rng)
		return g
	}},
	{name: "random", seeded: true, build: func(n, d int, _ float64, rng *stats.RNG) *Graph {
		return RandomBoundedDegree(n, d, n/4, rng)
	}},
}

// ModelNames lists the named topology models.
func ModelNames() []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.name
	}
	return names
}

func lookupModel(kind string) *model {
	for i := range models {
		if models[i].name == kind {
			return &models[i]
		}
	}
	return nil
}

// Seeded reports whether the named model's graph depends on the seed
// Model is given. Unknown names report false.
func Seeded(kind string) bool {
	m := lookupModel(kind)
	return m != nil && m.seeded
}

// Model builds the named model's graph, drawing a seeded model from
// stats.NewRNG(seed). Model is where CLI flags and campaign documents
// reach the generators, so the message a generator panics with on
// arguments the model cannot take (a 3-regular graph on 9 nodes, say)
// comes back as the error; any other panic is a fault and propagates.
func Model(kind string, n, d int, radius float64, seed uint64) (g *Graph, err error) {
	m := lookupModel(kind)
	if m == nil {
		return nil, fmt.Errorf("topology: unknown model %q", kind)
	}
	var rng *stats.RNG
	if m.seeded {
		rng = stats.NewRNG(seed)
	}
	defer func() {
		if p := recover(); p != nil {
			msg, ok := p.(string)
			if !ok {
				panic(p)
			}
			g, err = nil, errors.New(msg)
		}
	}()
	return m.build(n, d, radius, rng), nil
}
