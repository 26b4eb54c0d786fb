package topology

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitset"
)

// DenseLimit is the node count at which the deterministic generators stop
// materializing one n-bit adjacency bitset per node (O(n²) bits — ≈125 GB
// at n=10⁶) and build the compressed sparse-row form instead. Dense graphs
// stay mutable (AddEdge/RemoveEdge/EnforceMaxDegree); compressed graphs are
// immutable. The limit is a variable only so tests can force the CSR path
// at small n; production code must treat it as a constant.
var DenseLimit = 1 << 13

// Compressed sparse rows: nbr[off[u]:off[u+1]] lists u's neighbours in
// strictly increasing order. off has length n+1 with off[0] == 0. The
// arrays are immutable once built and may be shared between clones.

// IsCompressed reports whether the graph uses the immutable CSR
// representation rather than per-node adjacency bitsets.
func (g *Graph) IsCompressed() bool { return g.off != nil }

// newCSR builds a compressed graph on n nodes. row must append node u's
// neighbours (any order, duplicates allowed, self-loops rejected) to buf
// and return it; rows are requested in ascending u order, so generators
// can stream without materializing the whole edge list. Each row is
// sorted and deduplicated in place.
func newCSR(n int, row func(u int, buf []int32) []int32) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("topology: newCSR(%d)", n))
	}
	g := &Graph{n: n, off: make([]int64, n+1)}
	var buf []int32
	for u := 0; u < n; u++ {
		buf = row(u, buf[:0])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		prev := int32(-1)
		for _, v := range buf {
			if v == prev {
				continue
			}
			if v < 0 || int(v) >= n {
				panic(fmt.Sprintf("topology: CSR neighbour %d out of range [0,%d)", v, n))
			}
			if int(v) == u {
				panic(fmt.Sprintf("topology: self-loop at %d", u))
			}
			g.nbr = append(g.nbr, v)
			prev = v
		}
		g.off[u+1] = int64(len(g.nbr))
	}
	return g
}

// Compress returns the graph in CSR form: the receiver itself if already
// compressed, otherwise an immutable copy with the same edge set. The
// dense original is untouched.
func (g *Graph) Compress() *Graph {
	if g.IsCompressed() {
		return g
	}
	return newCSR(g.n, func(u int, buf []int32) []int32 {
		g.adj[u].ForEach(func(v int) bool {
			buf = append(buf, int32(v))
			return true
		})
		return buf
	})
}

// row returns u's CSR neighbour row. Only valid on compressed graphs.
func (g *Graph) row(u int) []int32 { return g.nbr[g.off[u]:g.off[u+1]] }

// ForEachNeighbor calls fn for each neighbour of x in increasing order,
// stopping early if fn returns false. It is the representation-agnostic
// iteration primitive the simulator kernels use: on compressed graphs it
// walks the CSR row directly; on dense graphs it scans the adjacency
// bitset.
func (g *Graph) ForEachNeighbor(x int, fn func(v int) bool) {
	if g.off != nil {
		for _, v := range g.row(x) {
			if !fn(int(v)) {
				return
			}
		}
		return
	}
	g.adj[x].ForEach(fn)
}

// ForEachNeighborIn calls fn for each neighbour v of x with lo <= v < hi,
// in increasing order, stopping early if fn returns false. Sharded kernels
// use it so a worker that owns the node range [lo, hi) can scatter to only
// its own rows. On compressed graphs the row prefix below lo is skipped by
// binary search; on dense graphs only the words covering [lo, hi) are
// scanned.
func (g *Graph) ForEachNeighborIn(x, lo, hi int, fn func(v int) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > g.n {
		hi = g.n
	}
	if lo >= hi {
		return
	}
	if g.off != nil {
		r := g.row(x)
		i := sort.Search(len(r), func(i int) bool { return int(r[i]) >= lo })
		for ; i < len(r); i++ {
			v := int(r[i])
			if v >= hi {
				return
			}
			if !fn(v) {
				return
			}
		}
		return
	}
	const wordBits = 64
	words := g.adj[x].Words()
	loW, hiW := lo/wordBits, (hi+wordBits-1)/wordBits
	if hiW > len(words) {
		hiW = len(words)
	}
	for wi := loW; wi < hiW; wi++ {
		w := words[wi]
		if wi == loW {
			w &^= (1 << uint(lo%wordBits)) - 1
		}
		if wi == hiW-1 && hi%wordBits != 0 && hi/wordBits == wi {
			w &= (1 << uint(hi%wordBits)) - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NeighborWords returns x's adjacency row as packed 64-bit words (bit i of
// word w is node 64*w + i) when the graph is dense, and nil when it is
// compressed. The slot kernels use it to fuse role-filtering into word
// ANDs; callers must treat the slice as read-only and fall back to
// NeighborRow when it is nil.
func (g *Graph) NeighborWords(x int) []uint64 {
	if g.off != nil {
		return nil
	}
	return g.adj[x].Words()
}

// NeighborRow returns x's sorted CSR neighbour row when the graph is
// compressed, and nil when it is dense. Callers must treat the slice as
// read-only and fall back to NeighborWords when it is nil.
func (g *Graph) NeighborRow(x int) []int32 {
	if g.off == nil {
		return nil
	}
	return g.row(x)
}

// CSR returns a compressed graph's rows in place: nbr[off[x]:off[x+1]] is
// x's sorted neighbour row, so off[x] is also the number of directed links
// out of the nodes before x. It returns nil, nil when the graph is dense.
// The arrays are the graph's own, shared with its clones: callers must
// treat them as read-only.
func (g *Graph) CSR() (off []int64, nbr []int32) { return g.off, g.nbr }

// csrHasEdge reports adjacency by binary search over u's sorted row,
// probing from the lower-degree endpoint.
func (g *Graph) csrHasEdge(u, v int) bool {
	if g.off[u+1]-g.off[u] > g.off[v+1]-g.off[v] {
		u, v = v, u
	}
	r := g.row(u)
	i := sort.Search(len(r), func(i int) bool { return int(r[i]) >= v })
	return i < len(r) && int(r[i]) == v
}

// csrNeighborSet materializes u's row as a fresh bitset. Compressed graphs
// have no per-node bitsets, so unlike the dense path this allocates
// O(n/64) words per call; hot loops should use ForEachNeighbor instead.
func (g *Graph) csrNeighborSet(u int) *bitset.Set {
	s := bitset.New(g.n)
	for _, v := range g.row(u) {
		s.Add(int(v))
	}
	return s
}
