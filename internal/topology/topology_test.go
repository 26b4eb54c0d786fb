package topology

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(5)
	if g.N() != 5 || g.EdgeCount() != 0 {
		t.Fatal("empty graph wrong")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should be undirected")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 || g.Degree(4) != 0 {
		t.Fatal("degrees wrong")
	}
	if g.MaxDegree() != 2 {
		t.Fatal("max degree wrong")
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
	if got := g.EdgeCount(); got != 1 {
		t.Fatalf("EdgeCount = %d", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop accepted")
		}
	}()
	NewGraph(3).AddEdge(1, 1)
}

func TestEdgesList(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(2, 0)
	g.AddEdge(3, 1)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered", e)
		}
	}
}

func TestConnectivity(t *testing.T) {
	g := Line(5)
	if !g.IsConnected() {
		t.Fatal("line should be connected")
	}
	g.RemoveEdge(2, 3)
	if g.IsConnected() {
		t.Fatal("cut line should be disconnected")
	}
	if !NewGraph(1).IsConnected() {
		t.Fatal("singleton should count as connected")
	}
}

func TestBFSTree(t *testing.T) {
	g := Grid(3, 3)
	parent, dist := g.BFSTree(0)
	if parent[0] != 0 || dist[0] != 0 {
		t.Fatal("root wrong")
	}
	if dist[8] != 4 { // opposite corner of a 3x3 grid
		t.Fatalf("dist[8] = %d, want 4", dist[8])
	}
	// Parents always one hop closer.
	for v := 1; v < 9; v++ {
		if !g.HasEdge(v, parent[v]) {
			t.Fatalf("parent of %d not adjacent", v)
		}
		if dist[v] != dist[parent[v]]+1 {
			t.Fatalf("distance of %d inconsistent", v)
		}
	}
	// Unreachable nodes.
	g2 := NewGraph(3)
	g2.AddEdge(0, 1)
	p2, d2 := g2.BFSTree(0)
	if p2[2] != -1 || d2[2] != -1 {
		t.Fatal("unreachable node should have parent/dist -1")
	}
}

func TestRingGridStarLine(t *testing.T) {
	r := Ring(6)
	for i := 0; i < 6; i++ {
		if r.Degree(i) != 2 {
			t.Fatal("ring degree")
		}
	}
	if !r.IsConnected() {
		t.Fatal("ring connectivity")
	}
	s := Star(7)
	if s.Degree(0) != 6 {
		t.Fatal("star centre degree")
	}
	for i := 1; i < 7; i++ {
		if s.Degree(i) != 1 {
			t.Fatal("star leaf degree")
		}
	}
	g := Grid(2, 3)
	if g.EdgeCount() != 7 { // 3 horizontal per row? 2*2 + 3 = 7
		t.Fatalf("grid edges = %d", g.EdgeCount())
	}
	l := Line(4)
	if l.EdgeCount() != 3 || l.MaxDegree() != 2 {
		t.Fatal("line wrong")
	}
}

func TestCirculantAndRegularish(t *testing.T) {
	g := Circulant(8, []int{1, 2})
	for i := 0; i < 8; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("circulant degree %d at %d", g.Degree(i), i)
		}
	}
	for _, nd := range [][2]int{{8, 2}, {9, 4}, {10, 3}, {12, 5}} {
		r := Regularish(nd[0], nd[1])
		for i := 0; i < nd[0]; i++ {
			if r.Degree(i) != nd[1] {
				t.Fatalf("Regularish(%d,%d): degree %d at node %d", nd[0], nd[1], r.Degree(i), i)
			}
		}
		if !r.IsConnected() {
			t.Fatalf("Regularish(%d,%d) disconnected", nd[0], nd[1])
		}
	}
	// Odd d with odd n is impossible.
	defer func() {
		if recover() == nil {
			t.Fatal("odd-odd Regularish accepted")
		}
	}()
	Regularish(9, 3)
}

func TestRandomGeometric(t *testing.T) {
	rng := stats.NewRNG(42)
	d := RandomGeometric(50, 0.3, rng)
	if d.Graph.N() != 50 {
		t.Fatal("node count")
	}
	// Edges respect the radius.
	for _, e := range d.Graph.Edges() {
		dx, dy := d.X[e[0]]-d.X[e[1]], d.Y[e[0]]-d.Y[e[1]]
		if dx*dx+dy*dy > 0.3*0.3+1e-12 {
			t.Fatalf("edge %v longer than radius", e)
		}
	}
	// All positions in the unit square.
	for i := range d.X {
		if d.X[i] < 0 || d.X[i] > 1 || d.Y[i] < 0 || d.Y[i] > 1 {
			t.Fatal("position out of square")
		}
	}
}

func TestDeploymentStep(t *testing.T) {
	rng := stats.NewRNG(7)
	d := RandomGeometric(30, 0.25, rng)
	before := d.Graph.Edges()
	d.Step(0.1, rng)
	for i := range d.X {
		if d.X[i] < 0 || d.X[i] > 1 || d.Y[i] < 0 || d.Y[i] > 1 {
			t.Fatal("position escaped after Step")
		}
	}
	after := d.Graph.Edges()
	if len(before) == len(after) {
		same := true
		for i := range before {
			if before[i] != after[i] {
				same = false
				break
			}
		}
		if same {
			t.Log("topology unchanged after step (possible but unlikely); not failing")
		}
	}
}

func TestEnforceMaxDegree(t *testing.T) {
	rng := stats.NewRNG(3)
	d := RandomGeometric(60, 0.5, rng) // dense
	g := d.Graph
	if g.MaxDegree() <= 4 {
		t.Skip("random graph unexpectedly sparse")
	}
	g.EnforceMaxDegree(4, rng)
	if g.MaxDegree() > 4 {
		t.Fatalf("max degree %d after enforcement", g.MaxDegree())
	}
}

func TestRandomBoundedDegreeProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 5 + rng.Intn(40)
		d := 2 + rng.Intn(5)
		extra := rng.Intn(n)
		g := RandomBoundedDegree(n, d, extra, rng)
		if g.MaxDegree() > d {
			return false
		}
		return g.IsConnected()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("Clone shares storage")
	}
}

func BenchmarkRandomGeometric200(b *testing.B) {
	rng := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		RandomGeometric(200, 0.15, rng)
	}
}

// BenchmarkRegularishCampaign builds the two CSR topologies the campaign
// benchmark's saturation grid runs on, the first job of each (n, D)
// waiting for its graph: N(9050, 3) and N(8450, 2), both above
// DenseLimit.
func BenchmarkRegularishCampaign(b *testing.B) {
	for _, c := range []struct{ n, d int }{{9050, 3}, {8450, 2}} {
		b.Run(fmt.Sprintf("n=%d,D=%d", c.n, c.d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := Regularish(c.n, c.d); !g.IsCompressed() {
					b.Fatalf("Regularish(%d, %d) is dense", c.n, c.d)
				}
			}
		})
	}
}
