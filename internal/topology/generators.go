package topology

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// The deterministic generators below (Ring, Line, Star, Grid, Circulant,
// Regularish) are each one closed-form neighbour row, which fromRows
// streams into the immutable CSR form at or above DenseLimit nodes and
// into the mutable dense form below.

// Ring returns the cycle graph on n >= 3 nodes (degree 2 everywhere).
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("topology: Ring(%d)", n))
	}
	return fromRows(n, func(i int, buf []int32) []int32 {
		return append(buf, int32((i+n-1)%n), int32((i+1)%n))
	})
}

// Line returns the path graph on n >= 2 nodes.
func Line(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: Line(%d)", n))
	}
	return fromRows(n, func(i int, buf []int32) []int32 {
		if i > 0 {
			buf = append(buf, int32(i-1))
		}
		if i+1 < n {
			buf = append(buf, int32(i+1))
		}
		return buf
	})
}

// Star returns the star graph on n >= 2 nodes with node 0 at the centre.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("topology: Star(%d)", n))
	}
	return fromRows(n, func(i int, buf []int32) []int32 {
		if i == 0 {
			for v := 1; v < n; v++ {
				buf = append(buf, int32(v))
			}
			return buf
		}
		return append(buf, 0)
	})
}

// Grid returns the rows×cols 4-neighbour grid graph; node (r, c) has index
// r*cols + c.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic(fmt.Sprintf("topology: Grid(%d, %d)", rows, cols))
	}
	return fromRows(rows*cols, func(id int, buf []int32) []int32 {
		r, c := id/cols, id%cols
		if r > 0 {
			buf = append(buf, int32(id-cols))
		}
		if c > 0 {
			buf = append(buf, int32(id-1))
		}
		if c+1 < cols {
			buf = append(buf, int32(id+1))
		}
		if r+1 < rows {
			buf = append(buf, int32(id+cols))
		}
		return buf
	})
}

// Circulant returns the circulant graph on n nodes with the given positive
// offsets: i is adjacent to (i ± o) mod n for each offset o. With offsets
// 1..k it is exactly 2k-regular (for n > 2k) — the deterministic worst-case
// topology in which every node has the maximum degree.
func Circulant(n int, offsets []int) *Graph {
	for _, o := range offsets {
		if o < 1 || 2*o > n {
			panic(fmt.Sprintf("topology: Circulant offset %d invalid for n = %d", o, n))
		}
	}
	return fromRows(n, circulantRow(n, offsets))
}

// circulantRow lists i+o and i-o for each offset. For a diameter offset
// (2o == n) they are one node, which both of fromRows's forms keep once.
func circulantRow(n int, offsets []int) func(int, []int32) []int32 {
	return func(i int, buf []int32) []int32 {
		for _, o := range offsets {
			buf = append(buf, int32((i+o)%n), int32((i+n-o)%n))
		}
		return buf
	}
}

// Regularish returns a deterministic near-d-regular graph on n nodes:
// a circulant with offsets 1..⌊d/2⌋, plus the diameter matching i↔i+n/2
// when d is odd and n even. Every node has degree exactly d when
// (d even) or (d odd and n even); otherwise degree d-1 results and the
// function panics so callers don't silently test a weaker worst case.
func Regularish(n, d int) *Graph {
	if d < 2 || d >= n {
		panic(fmt.Sprintf("topology: Regularish(%d, %d)", n, d))
	}
	if d%2 == 1 && n%2 == 1 {
		panic(fmt.Sprintf("topology: no %d-regular graph on %d nodes (nd odd)", d, n))
	}
	offsets := make([]int, 0, d/2)
	for o := 1; o <= d/2; o++ {
		offsets = append(offsets, o)
	}
	circulant := circulantRow(n, offsets)
	g := fromRows(n, func(i int, buf []int32) []int32 {
		buf = circulant(i, buf)
		if d%2 == 1 {
			buf = append(buf, int32((i+n/2)%n))
		}
		return buf
	})
	for i := 0; i < n; i++ {
		if g.Degree(i) != d {
			panic(fmt.Sprintf("topology: Regularish degree %d at node %d, want %d", g.Degree(i), i, d))
		}
	}
	return g
}

// Deployment is a set of node positions in the unit square together with
// the graph induced by a communication radius.
type Deployment struct {
	X, Y   []float64
	Radius float64
	Graph  *Graph
}

// RandomGeometric places n nodes uniformly in the unit square and connects
// pairs within the given radius (a unit-disk graph, the standard WSN
// deployment model).
func RandomGeometric(n int, radius float64, rng *stats.RNG) *Deployment {
	if n < 1 || radius <= 0 {
		panic(fmt.Sprintf("topology: RandomGeometric(%d, %v)", n, radius))
	}
	d := &Deployment{
		X:      make([]float64, n),
		Y:      make([]float64, n),
		Radius: radius,
	}
	for i := 0; i < n; i++ {
		d.X[i] = rng.Float64()
		d.Y[i] = rng.Float64()
	}
	d.Graph = d.induce()
	return d
}

func (d *Deployment) induce() *Graph {
	n := len(d.X)
	g := NewGraph(n)
	r2 := d.Radius * d.Radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := d.X[i]-d.X[j], d.Y[i]-d.Y[j]
			if dx*dx+dy*dy <= r2 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Step moves every node by a uniform random offset of at most maxStep in
// each coordinate (reflecting at the unit-square borders) and rebuilds the
// induced graph — a simple mobility model for topology-churn experiments.
func (d *Deployment) Step(maxStep float64, rng *stats.RNG) {
	for i := range d.X {
		d.X[i] = reflect01(d.X[i] + (rng.Float64()*2-1)*maxStep)
		d.Y[i] = reflect01(d.Y[i] + (rng.Float64()*2-1)*maxStep)
	}
	d.Graph = d.induce()
}

func reflect01(v float64) float64 {
	v = math.Mod(math.Abs(v), 2)
	if v > 1 {
		v = 2 - v
	}
	return v
}

// RandomBoundedDegree returns a connected random graph on n nodes with
// every degree at most d, built by first linking a random spanning tree
// with degree headroom and then adding random extra edges up to the bound.
// It panics if d < 2 (a degree-1 bound cannot connect n > 2 nodes).
func RandomBoundedDegree(n, d, extraEdges int, rng *stats.RNG) *Graph {
	if n < 2 || d < 2 {
		panic(fmt.Sprintf("topology: RandomBoundedDegree(%d, %d)", n, d))
	}
	g := NewGraph(n)
	// Random spanning tree: attach each node (in random order) to a random
	// already-attached node with spare degree.
	order := rng.Perm(n)
	attached := []int{order[0]}
	for _, v := range order[1:] {
		// Collect candidates with degree < d-1 (leave one slot spare so the
		// tree never locks itself out).
		var candidates []int
		for _, u := range attached {
			if g.Degree(u) < d-1 || (g.Degree(u) < d && len(candidates) == 0) {
				candidates = append(candidates, u)
			}
		}
		u := candidates[rng.Intn(len(candidates))]
		g.AddEdge(u, v)
		attached = append(attached, v)
	}
	// Extra random edges within the degree bound.
	for e := 0; e < extraEdges; e++ {
		for tries := 0; tries < 50; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) || g.Degree(u) >= d || g.Degree(v) >= d {
				continue
			}
			g.AddEdge(u, v)
			break
		}
	}
	return g
}
