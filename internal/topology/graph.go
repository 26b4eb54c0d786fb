// Package topology provides the network-graph substrate for the simulator:
// an undirected graph type, deterministic and random generators matching
// the workloads a WSN paper assumes (rings, grids, unit-disk deployments,
// degree-bounded random networks), breadth-first routing trees, and a
// simple topology-churn model used to demonstrate topology transparency.
package topology

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/stats"
)

// Graph is a simple undirected graph over nodes {0..n-1}. The zero value is
// unusable; create with NewGraph.
//
// A graph is in one of two representations:
//
//   - dense: one n-bit adjacency bitset per node (O(n²) bits), mutable —
//     what NewGraph, the seeded generators and the deterministic ones
//     below DenseLimit nodes build;
//   - compressed (CSR): flat sorted neighbour/offset arrays (O(n+m)
//     memory), immutable — what the deterministic generators build at or
//     above DenseLimit nodes, and what Compress returns.
//
// All queries (Degree, Neighbors, HasEdge, BFSTree, ...) work on both;
// mutators (AddEdge, RemoveEdge, EnforceMaxDegree) panic on compressed
// graphs.
type Graph struct {
	n   int
	adj []*bitset.Set // dense mode; nil when compressed
	off []int64       // CSR row offsets, len n+1; nil when dense
	nbr []int32       // CSR neighbour rows, sorted per node
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("topology: NewGraph(%d)", n))
	}
	g := &Graph{n: n, adj: make([]*bitset.Set, n)}
	for i := range g.adj {
		g.adj[i] = bitset.New(n)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// mutable panics unless the graph is in the dense (mutable)
// representation.
func (g *Graph) mutable(op string) {
	if g.off != nil {
		panic(fmt.Sprintf("topology: %s on immutable compressed graph", op))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected.
// Panics on compressed graphs.
func (g *Graph) AddEdge(u, v int) {
	g.mutable("AddEdge")
	if u == v {
		panic(fmt.Sprintf("topology: self-loop at %d", u))
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

// RemoveEdge deletes the undirected edge {u, v} if present. Panics on
// compressed graphs.
func (g *Graph) RemoveEdge(u, v int) {
	g.mutable("RemoveEdge")
	g.adj[u].Remove(v)
	g.adj[v].Remove(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if g.off != nil {
		return g.csrHasEdge(u, v)
	}
	return g.adj[u].Contains(v)
}

// Degree returns the degree of node x.
func (g *Graph) Degree(x int) int {
	if g.off != nil {
		return int(g.off[x+1] - g.off[x])
	}
	return g.adj[x].Count()
}

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for x := 0; x < g.n; x++ {
		if c := g.Degree(x); c > m {
			m = c
		}
	}
	return m
}

// Neighbors returns the neighbours of x in increasing order.
func (g *Graph) Neighbors(x int) []int {
	if g.off != nil {
		r := g.row(x)
		out := make([]int, len(r))
		for i, v := range r {
			out[i] = int(v)
		}
		return out
	}
	return g.adj[x].Elements()
}

// NeighborSet returns the neighbour bitset of x; the caller must not
// modify it. On compressed graphs the bitset is materialized per call
// (O(n/64) words) — hot loops should use ForEachNeighbor instead, which
// is allocation-free in both representations.
func (g *Graph) NeighborSet(x int) *bitset.Set {
	if g.off != nil {
		return g.csrNeighborSet(x)
	}
	return g.adj[x]
}

// Edges returns all edges as ordered pairs (u < v).
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		g.ForEachNeighbor(u, func(v int) bool {
			if v > u {
				out = append(out, [2]int{u, v})
			}
			return true
		})
	}
	return out
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	if g.off != nil {
		return len(g.nbr) / 2
	}
	total := 0
	for _, a := range g.adj {
		total += a.Count()
	}
	return total / 2
}

// Clone returns a deep copy of the graph. Compressed graphs are immutable,
// so their clone shares the CSR arrays.
func (g *Graph) Clone() *Graph {
	if g.off != nil {
		return &Graph{n: g.n, off: g.off, nbr: g.nbr}
	}
	c := NewGraph(g.n)
	for i := range g.adj {
		c.adj[i] = g.adj[i].Clone()
	}
	return c
}

// IsConnected reports whether the graph is connected (true for n == 1).
func (g *Graph) IsConnected() bool {
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ForEachNeighbor(u, func(v int) bool {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
			return true
		})
	}
	return count == g.n
}

// BFSTree returns, for each node, its parent on a breadth-first tree rooted
// at root (parent[root] == root) and its hop distance from root. Nodes
// unreachable from root get parent -1 and distance -1.
func (g *Graph) BFSTree(root int) (parent, dist []int) {
	parent = make([]int, g.n)
	dist = make([]int, g.n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[root] = root
	dist[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(u, func(v int) bool {
			if parent[v] == -1 {
				parent[v] = u
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
			return true
		})
	}
	return parent, dist
}

// EnforceMaxDegree removes edges (highest-degree endpoints first) until no
// node exceeds degree d. Removal order is deterministic given the RNG. The
// graph may become disconnected; callers that need connectivity should
// check IsConnected afterwards.
func (g *Graph) EnforceMaxDegree(d int, rng *stats.RNG) {
	g.mutable("EnforceMaxDegree")
	if d < 0 {
		panic("topology: negative degree bound")
	}
	for x := 0; x < g.n; x++ {
		for g.Degree(x) > d {
			// Drop the edge to the neighbour with the highest degree,
			// breaking ties randomly, so the trimming spreads.
			nbrs := g.Neighbors(x)
			best := nbrs[0]
			bestDeg := g.Degree(best)
			for _, v := range nbrs[1:] {
				dv := g.Degree(v)
				if dv > bestDeg || (dv == bestDeg && rng.Bool(0.5)) {
					best, bestDeg = v, dv
				}
			}
			g.RemoveEdge(x, best)
		}
	}
}
