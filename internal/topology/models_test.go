package topology

import (
	"fmt"
	"slices"
	"testing"
)

// TestModels: every named model builds, the seeded ones give one graph
// per seed and a different one for another seed, the others ignore the
// seed, and an unknown name or a class the model cannot take is an error
// rather than a panic.
func TestModels(t *testing.T) {
	if got := ModelNames(); !slices.Equal(got, []string{"regular", "ring", "grid", "geometric", "random"}) {
		t.Fatalf("ModelNames() = %v", got)
	}
	edges := func(kind string, seed uint64) string {
		g, err := Model(kind, 40, 4, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() < 40 || g.MaxDegree() > 4 {
			t.Errorf("%s: %d nodes, max degree %d", kind, g.N(), g.MaxDegree())
		}
		return fmt.Sprint(g.Edges())
	}
	for _, kind := range ModelNames() {
		first, again, other := edges(kind, 1), edges(kind, 1), edges(kind, 2)
		if first != again {
			t.Errorf("%s: one seed built two graphs", kind)
		}
		if (first != other) != Seeded(kind) {
			t.Errorf("%s: Seeded = %v, but seeds 1 and 2 built different graphs: %v", kind, Seeded(kind), first != other)
		}
	}
	if _, err := Model("klein-bottle", 40, 4, 0.3, 1); err == nil || Seeded("klein-bottle") {
		t.Error("unknown model accepted")
	}
	const odd = "topology: no 3-regular graph on 9 nodes (nd odd)"
	if g, err := Model("regular", 9, 3, 0.3, 1); g != nil || err == nil || err.Error() != odd {
		t.Errorf("regular N(9, 3) = %v, %v; want no graph and %q", g, err, odd)
	}
}
