package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// assertGraphsEqual checks that two graphs expose identical edge sets and
// derived queries through the whole public query surface.
func assertGraphsEqual(t *testing.T, name string, dense, csr *Graph) {
	t.Helper()
	if dense.N() != csr.N() {
		t.Fatalf("%s: N %d != %d", name, dense.N(), csr.N())
	}
	if dense.EdgeCount() != csr.EdgeCount() {
		t.Fatalf("%s: EdgeCount %d != %d", name, dense.EdgeCount(), csr.EdgeCount())
	}
	if dense.MaxDegree() != csr.MaxDegree() {
		t.Fatalf("%s: MaxDegree %d != %d", name, dense.MaxDegree(), csr.MaxDegree())
	}
	if !reflect.DeepEqual(dense.Edges(), csr.Edges()) {
		t.Fatalf("%s: Edges differ", name)
	}
	if dense.IsConnected() != csr.IsConnected() {
		t.Fatalf("%s: IsConnected %v != %v", name, dense.IsConnected(), csr.IsConnected())
	}
	n := dense.N()
	for x := 0; x < n; x++ {
		if dense.Degree(x) != csr.Degree(x) {
			t.Fatalf("%s: Degree(%d) %d != %d", name, x, dense.Degree(x), csr.Degree(x))
		}
		dn, cn := dense.Neighbors(x), csr.Neighbors(x)
		if !reflect.DeepEqual(dn, cn) {
			t.Fatalf("%s: Neighbors(%d) %v != %v", name, x, dn, cn)
		}
		var iter []int
		csr.ForEachNeighbor(x, func(v int) bool {
			iter = append(iter, v)
			return true
		})
		if len(dn) == 0 {
			if len(iter) != 0 {
				t.Fatalf("%s: ForEachNeighbor(%d) = %v, want empty", name, x, iter)
			}
		} else if !reflect.DeepEqual(dn, iter) {
			t.Fatalf("%s: ForEachNeighbor(%d) %v != %v", name, x, dn, iter)
		}
		if !dense.NeighborSet(x).Equal(csr.NeighborSet(x)) {
			t.Fatalf("%s: NeighborSet(%d) differs", name, x)
		}
		for v := 0; v < n; v++ {
			if dense.HasEdge(x, v) != csr.HasEdge(x, v) {
				t.Fatalf("%s: HasEdge(%d, %d) %v != %v", name, x, v, dense.HasEdge(x, v), csr.HasEdge(x, v))
			}
		}
	}
	dp, dd := dense.BFSTree(0)
	cp, cd := csr.BFSTree(0)
	if !reflect.DeepEqual(dp, cp) || !reflect.DeepEqual(dd, cd) {
		t.Fatalf("%s: BFSTree differs", name)
	}
}

// TestGeneratorsStreamCSRAboveLimit holds each generator's graph shape
// (the star's hub row, a circulant's diameter offset) to the same answers
// in both representations: its dense build below DenseLimit against that
// graph's rows streamed through newCSR by Compress. TestGeneratorDigests
// pins what the generators stream at and above the limit.
func TestGeneratorsStreamCSRAboveLimit(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"ring", func() *Graph { return Ring(37) }},
		{"line", func() *Graph { return Line(31) }},
		{"star", func() *Graph { return Star(29) }},
		{"grid", func() *Graph { return Grid(6, 7) }},
		{"circulant", func() *Graph { return Circulant(24, []int{1, 3, 5}) }},
		{"circulant-diameter", func() *Graph { return Circulant(20, []int{1, 10}) }},
		{"regularish-even", func() *Graph { return Regularish(40, 6) }},
		{"regularish-odd", func() *Graph { return Regularish(40, 5) }},
	}
	for _, tc := range cases {
		dense := tc.build()
		if dense.IsCompressed() {
			t.Fatalf("%s: dense build compressed below limit", tc.name)
		}
		csr := dense.Compress()
		if !csr.IsCompressed() {
			t.Fatalf("%s: Compress returned a dense graph", tc.name)
		}
		assertGraphsEqual(t, tc.name, dense, csr)
	}
}

func TestCompressMatchesDense(t *testing.T) {
	rng := stats.NewRNG(11)
	graphs := map[string]*Graph{
		"random":    RandomBoundedDegree(33, 5, 20, rng),
		"geometric": RandomGeometric(40, 0.3, rng).Graph,
		"grid":      Grid(5, 8),
	}
	for name, dense := range graphs {
		csr := dense.Compress()
		if !csr.IsCompressed() {
			t.Fatalf("%s: Compress returned dense graph", name)
		}
		assertGraphsEqual(t, name, dense, csr)
		if again := csr.Compress(); again != csr {
			t.Errorf("%s: Compress of compressed graph did not return receiver", name)
		}
		clone := csr.Clone()
		if !clone.IsCompressed() {
			t.Errorf("%s: Clone of compressed graph is dense", name)
		}
		assertGraphsEqual(t, name+"/clone", dense, clone)
	}
}

func TestCompressedGraphMutationPanics(t *testing.T) {
	csr := Grid(4, 4).Compress()
	for name, fn := range map[string]func(){
		"AddEdge":          func() { csr.AddEdge(0, 5) },
		"RemoveEdge":       func() { csr.RemoveEdge(0, 1) },
		"EnforceMaxDegree": func() { csr.EnforceMaxDegree(1, stats.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on compressed graph did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCSRMemoryShape(t *testing.T) {
	// The CSR form must be O(n+m): spot-check the backing array lengths.
	g := Ring(1000).Compress()
	if len(g.nbr) != 2000 {
		t.Fatalf("Ring(1000) CSR has %d neighbour entries, want 2000", len(g.nbr))
	}
	if len(g.off) != 1001 {
		t.Fatalf("Ring(1000) CSR has %d offsets, want 1001", len(g.off))
	}
}

// TestGeneratorDigests pins what each deterministic generator returns on
// both sides of DenseLimit: the SHA-256 of the node count, the
// representation, the edge list and every node's neighbour row. Journals,
// sweep tables and wire frames are computed on these graphs, so neither the
// edges nor the representation may change for the same arguments. Edges
// lists each edge from its lower endpoint only, so the rows are hashed too:
// a CSR row that drops or changes a lower neighbour leaves Edges as it was.
func TestGeneratorDigests(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{"Ring(37)", func() *Graph { return Ring(37) }, "725facfda15c8985abacbeaef1d3da19386f187dbbe28edf029c7bc40ba1b000"},
		{"Ring(8191)", func() *Graph { return Ring(DenseLimit - 1) }, "441a2cd6c006b6c59e0b24f930651b743b8f09dbff720d7683120feaed364bc1"},
		{"Ring(8192)", func() *Graph { return Ring(DenseLimit) }, "d85f5a17b26555bb0b57dd626e22deb63920ec170654caad50346f4b20b10818"},
		{"Line(31)", func() *Graph { return Line(31) }, "d54d08693817d63032ca4dc36e1ce7d7cf49dfb2e1de9cfb9904359d00e7fffb"},
		{"Line(8200)", func() *Graph { return Line(8200) }, "9b378099702c983849bdffb2ae00ed2081d38cb55b951df77be036f832f81244"},
		{"Star(29)", func() *Graph { return Star(29) }, "ff274f4f1854e322fd0a6b607a24b120bedc19ff7ec4101b287f0f811f92e37b"},
		{"Star(8193)", func() *Graph { return Star(8193) }, "4c49ed1c11eac2a4d762c522f12d37b8b893ba032d8de7965d7ff66e9c7d2d30"},
		{"Grid(6, 7)", func() *Graph { return Grid(6, 7) }, "476a709897a360eb547eb410f6398a0856b932405eb30c7d13fac4bf1f0a643d"},
		{"Grid(20, 20)", func() *Graph { return Grid(20, 20) }, "1654165b3cabc9f46460178fc0792af2f3222a2202016e2d06c303037cf338eb"},
		{"Grid(91, 91)", func() *Graph { return Grid(91, 91) }, "6b4954e9250f6ea89ed13a9c9d0253b31a0010d961f4520be277c17282172a4b"},
		{"Circulant(24, [1 3 5])", func() *Graph { return Circulant(24, []int{1, 3, 5}) }, "e1dc2a786a868bcf5cd10f23bdb661493dd7565fd516aa0e9903c8d85afc6090"},
		{"Circulant(20, [1 10])", func() *Graph { return Circulant(20, []int{1, 10}) }, "89a306b79b358b31797c0edf8d775f0911bb593f70636b4ff72ec258a50f979a"},
		{"Circulant(8192, [1 4096])", func() *Graph { return Circulant(8192, []int{1, 4096}) }, "e6e05e1fc6069e5eecf35599d6b36884d022ba6a70cddffd773e79e7add19e1d"},
		{"Regularish(40, 6)", func() *Graph { return Regularish(40, 6) }, "86cbf2220ac6c7eb541e5bd0120acf81b5d34bc21ae621b78aad08799e75636c"},
		{"Regularish(40, 5)", func() *Graph { return Regularish(40, 5) }, "2908bb9548289e129471918b00e6b7e9be817d96e7d26a09894d23b538d5cd93"},
		{"Regularish(8300, 2)", func() *Graph { return Regularish(8300, 2) }, "0cb42d0a97eedc83ed4046c8581e21f63856b485c4629a4f77f8a92a1a79d0a1"},
		{"Regularish(8450, 3)", func() *Graph { return Regularish(8450, 3) }, "f55877d326b2fe2bad1a2f3cf320b0d527768e6879c6dad69ba12a0db2146aa5"},
	}
	for _, tc := range cases {
		g := tc.build()
		h := sha256.New()
		fmt.Fprintln(h, g.N(), g.IsCompressed(), g.Edges())
		for u := 0; u < g.N(); u++ {
			fmt.Fprintln(h, g.Neighbors(u))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
