package cff

import (
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/gf"
	"repro/internal/stats"
)

func TestIdentityFamily(t *testing.T) {
	f, err := Identity(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.N() != 6 || f.L != 6 {
		t.Fatalf("N=%d L=%d", f.N(), f.L)
	}
	for d := 1; d <= 5; d++ {
		if !f.IsCoverFree(d) {
			t.Fatalf("identity not %d-cover-free", d)
		}
	}
	if f.MinSetSize() != 1 || f.MaxSetSize() != 1 {
		t.Fatal("identity set sizes should be 1")
	}
	if _, err := Identity(0); err == nil {
		t.Fatal("Identity(0) should error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	f, _ := Identity(4)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Failure injection: empty set.
	f.Sets[2].Clear()
	if err := f.Validate(); err == nil {
		t.Fatal("Validate should reject an empty member set")
	}
	// Nil set.
	f2, _ := Identity(4)
	f2.Sets[1] = nil
	if err := f2.Validate(); err == nil {
		t.Fatal("Validate should reject a nil member set")
	}
	// Capacity mismatch.
	f3, _ := Identity(4)
	f3.Sets[0] = bitset.FromSlice(9, []int{0})
	if err := f3.Validate(); err == nil {
		t.Fatal("Validate should reject capacity mismatch")
	}
}

func TestFindViolationDetects(t *testing.T) {
	// Family where set 0 ⊆ set1 ∪ set2.
	L := 6
	f := &Family{L: L, Sets: []*bitset.Set{
		bitset.FromSlice(L, []int{0, 1}),
		bitset.FromSlice(L, []int{0, 3}),
		bitset.FromSlice(L, []int{1, 4}),
		bitset.FromSlice(L, []int{5}),
	}}
	v := f.FindViolation(2)
	if v == nil {
		t.Fatal("expected violation")
	}
	if v.X != 0 {
		t.Fatalf("violation X = %d, want 0", v.X)
	}
	union := bitset.New(L)
	for _, y := range v.Cover {
		union.UnionWith(f.Sets[y])
	}
	if !f.Sets[v.X].SubsetOf(union) {
		t.Fatal("reported violation is not a real cover")
	}
	if f.IsCoverFree(2) {
		t.Fatal("IsCoverFree should be false")
	}
	if !f.IsCoverFree(1) {
		t.Fatal("family should be 1-cover-free")
	}
}

func TestFindViolationFewerThanDOthers(t *testing.T) {
	// n-1 < d: union over all others.
	L := 4
	f := &Family{L: L, Sets: []*bitset.Set{
		bitset.FromSlice(L, []int{0}),
		bitset.FromSlice(L, []int{0, 1}),
	}}
	if f.IsCoverFree(3) {
		t.Fatal("set 0 is covered by set 1 alone; d=3 vacuous check should catch it")
	}
	g := &Family{L: L, Sets: []*bitset.Set{
		bitset.FromSlice(L, []int{0, 2}),
		bitset.FromSlice(L, []int{0, 1}),
	}}
	if !g.IsCoverFree(3) {
		t.Fatal("no cover exists; should be cover-free")
	}
}

func TestFindPolynomialParams(t *testing.T) {
	p, err := FindPolynomialParams(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	// q must be a prime power with q >= kD+1 and q^(k+1) >= 25.
	if p.Q < p.K*2+1 {
		t.Fatalf("params %+v violate q >= kD+1", p)
	}
	if p.N < 25 {
		t.Fatalf("params %+v support too few nodes", p)
	}
	// q=5,k=1 gives N=25, D=4: the smallest feasible frame (L=25).
	if p.Q != 5 || p.K != 1 {
		t.Fatalf("expected q=5,k=1, got %+v", p)
	}
	if p.FrameLength() != 25 {
		t.Fatalf("FrameLength = %d", p.FrameLength())
	}

	if _, err := FindPolynomialParams(1, 2); err == nil {
		t.Fatal("n=1 should error")
	}
	if _, err := FindPolynomialParams(10, 0); err == nil {
		t.Fatal("D=0 should error")
	}
}

func TestFindPolynomialParamsLargerD(t *testing.T) {
	// With larger D the field must grow: q >= kD+1.
	for _, tc := range []struct{ n, d int }{{50, 3}, {100, 4}, {200, 5}, {1000, 6}} {
		p, err := FindPolynomialParams(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if p.K*tc.d >= p.Q {
			t.Fatalf("n=%d D=%d: kD=%d >= q=%d", tc.n, tc.d, p.K*tc.d, p.Q)
		}
		if p.N < tc.n {
			t.Fatalf("n=%d D=%d: capacity %d too small", tc.n, tc.d, p.N)
		}
	}
}

func TestPolynomialFamilyIsCoverFree(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{9, 2}, {16, 3}, {25, 2}, {27, 2}} {
		f, err := PolynomialFor(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if f.N() != tc.n {
			t.Fatalf("N = %d, want %d", f.N(), tc.n)
		}
		if !f.IsCoverFree(tc.d) {
			t.Fatalf("polynomial family (n=%d, D=%d) not cover-free", tc.n, tc.d)
		}
	}
}

func TestPolynomialSetsSizeQ(t *testing.T) {
	p, err := FindPolynomialParams(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Polynomial(20, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sets {
		if s.Count() != p.Q {
			t.Fatalf("set %d has %d slots, want q=%d", i, s.Count(), p.Q)
		}
	}
	// One slot per subframe: exactly one element in [q*j, q*(j+1)) per j.
	for i, s := range f.Sets {
		for j := 0; j < p.Q; j++ {
			cnt := 0
			for e := p.Q * j; e < p.Q*(j+1); e++ {
				if s.Contains(e) {
					cnt++
				}
			}
			if cnt != 1 {
				t.Fatalf("set %d has %d slots in subframe %d", i, cnt, j)
			}
		}
	}
}

func TestPolynomialDistinctSets(t *testing.T) {
	f, err := PolynomialFor(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		for j := i + 1; j < f.N(); j++ {
			if f.Sets[i].Equal(f.Sets[j]) {
				t.Fatalf("sets %d and %d identical", i, j)
			}
		}
	}
}

func TestPolynomialRejectsTooManyNodes(t *testing.T) {
	p, _ := FindPolynomialParams(9, 2)
	if _, err := Polynomial(p.N+1, p); err == nil {
		t.Fatal("should reject n > capacity")
	}
}

func TestBoseSTS(t *testing.T) {
	for _, v := range []int{3, 9, 15, 21, 27, 33} {
		blocks, err := STS(v)
		if err != nil {
			t.Fatalf("STS(%d): %v", v, err)
		}
		if err := VerifySTS(v, blocks); err != nil {
			t.Fatalf("STS(%d): %v", v, err)
		}
	}
}

func TestCyclicSTS(t *testing.T) {
	for _, v := range []int{7, 13, 19, 25, 31, 37, 43, 49, 55, 61} {
		blocks, err := STS(v)
		if err != nil {
			t.Fatalf("STS(%d): %v", v, err)
		}
		if err := VerifySTS(v, blocks); err != nil {
			t.Fatalf("STS(%d): %v", v, err)
		}
	}
}

func TestSTSInvalidOrders(t *testing.T) {
	for _, v := range []int{0, 2, 4, 5, 6, 8, 10, 11, 12, 14} {
		if _, err := STS(v); err == nil {
			t.Fatalf("STS(%d) should not exist", v)
		}
	}
}

func TestSTSOrderFor(t *testing.T) {
	cases := [][2]int{{1, 7}, {7, 7}, {8, 9}, {12, 9}, {13, 13}, {26, 13}, {27, 15}, {35, 15}, {36, 19}}
	for _, c := range cases {
		if got := STSOrderFor(c[0]); got != c[1] {
			t.Fatalf("STSOrderFor(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestSteinerFamilyCoverFree(t *testing.T) {
	for _, n := range []int{5, 7, 20, 35} {
		f, err := Steiner(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if f.N() != n {
			t.Fatalf("N = %d, want %d", f.N(), n)
		}
		if !f.IsCoverFree(2) {
			t.Fatalf("Steiner family n=%d not 2-cover-free", n)
		}
		if f.MinSetSize() != 3 || f.MaxSetSize() != 3 {
			t.Fatal("Steiner member sets should all have size 3")
		}
	}
}

func TestSteinerPairwiseIntersection(t *testing.T) {
	f, err := Steiner(30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		for j := i + 1; j < f.N(); j++ {
			if c := f.Sets[i].IntersectionCount(f.Sets[j]); c > 1 {
				t.Fatalf("blocks %d,%d share %d points", i, j, c)
			}
		}
	}
}

func TestCheckRandomFindsPlantedViolation(t *testing.T) {
	// Build an identity family and corrupt one set so it is covered.
	f, _ := Identity(8)
	f.Sets[3] = bitset.FromSlice(8, []int{5}) // now duplicates set 5
	rng := stats.NewRNG(99)
	v := f.CheckRandom(2, 5000, rng)
	if v == nil {
		t.Fatal("CheckRandom missed a dense violation")
	}
	union := bitset.New(8)
	for _, y := range v.Cover {
		union.UnionWith(f.Sets[y])
	}
	if !f.Sets[v.X].SubsetOf(union) {
		t.Fatal("CheckRandom reported a non-violation")
	}
}

func TestCheckRandomCleanFamily(t *testing.T) {
	f, err := PolynomialFor(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.CheckRandom(2, 2000, stats.NewRNG(1)); v != nil {
		t.Fatalf("false positive violation: %v", v)
	}
}

func TestQuickPolynomialCoverFreeAcrossParams(t *testing.T) {
	// Property: for random small (n, D), the generated family passes the
	// exhaustive D-cover-free verifier.
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 4 + r.Intn(20)
		d := 1 + r.Intn(3)
		f, err := PolynomialFor(n, d)
		if err != nil {
			return false
		}
		return f.IsCoverFree(d)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDifferenceTriplesProperties(t *testing.T) {
	for t0 := 1; t0 <= 12; t0++ {
		v := 6*t0 + 1
		dts, err := differenceTriples(t0, v)
		if err != nil {
			t.Fatalf("t=%d: %v", t0, err)
		}
		if len(dts) != t0 {
			t.Fatalf("t=%d: %d triples", t0, len(dts))
		}
		used := map[int]bool{}
		for _, dt := range dts {
			a, b, c := dt[0], dt[1], dt[2]
			if !(0 < a && a < b && b < c && c <= 3*t0) {
				t.Fatalf("t=%d: bad triple %v", t0, dt)
			}
			if a+b != c && a+b+c != v {
				t.Fatalf("t=%d: triple %v fails sum condition", t0, dt)
			}
			for _, x := range dt {
				if used[x] {
					t.Fatalf("t=%d: difference %d reused", t0, x)
				}
				used[x] = true
			}
		}
	}
}

func BenchmarkPolynomialConstruct(b *testing.B) {
	p, _ := FindPolynomialParams(100, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Polynomial(100, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCoverFree(b *testing.B) {
	f, _ := PolynomialFor(20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.IsCoverFree(2) {
			b.Fatal("not cover-free")
		}
	}
}

func BenchmarkSTS61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := STS(61); err != nil {
			b.Fatal(err)
		}
	}
}

// evalRef evaluates the polynomial with the given coefficients (lowest
// degree first) at x by Horner's rule with table multiplication: the
// per-coefficient reference for Polynomial's member sets.
func evalRef(f *gf.Field, tb *gf.Tables, coeffs []int, x int) int {
	v := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = f.Add(tb.Mul(v, x), coeffs[i])
	}
	return v
}

func TestTablesEvalReference(t *testing.T) {
	f, err := gf.NewOrder(9)
	if err != nil {
		t.Fatal(err)
	}
	tb := gf.NewTables(f)
	coeffs := []int{4, 7, 2, 5}
	for x := 0; x < 9; x++ {
		if evalRef(f, tb, coeffs, x) != f.Eval(coeffs, x) {
			t.Fatalf("Eval mismatch at %d", x)
		}
	}
}

// TestPolynomialMatchesEvalReference pins every member set of the
// parent-row construction against per-coefficient evaluation, over prime
// and prime-power fields and node counts that stop mid-row.
func TestPolynomialMatchesEvalReference(t *testing.T) {
	for _, c := range []struct{ n, d int }{
		{2, 1}, {9, 2}, {25, 2}, {64, 3}, {100, 2}, {400, 4}, {1000, 3}, {8400, 3}, {9000, 2},
	} {
		p, err := FindPolynomialParams(c.n, c.d)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := Polynomial(c.n, p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := gf.NewOrder(p.Q)
		if err != nil {
			t.Fatal(err)
		}
		tb := gf.NewTables(f)
		coeffs := make([]int, p.K+1)
		for x := 0; x < c.n; x++ {
			v := x
			for i := range coeffs {
				coeffs[i] = v % p.Q
				v /= p.Q
			}
			want := bitset.New(p.FrameLength())
			for j := 0; j < p.Q; j++ {
				want.Add(p.Q*j + evalRef(f, tb, coeffs, j))
			}
			if !fam.Sets[x].Equal(want) || fam.Sets[x].Cap() != want.Cap() {
				t.Fatalf("n=%d D=%d (q=%d, k=%d): set %d = %v, want %v", c.n, c.d, p.Q, p.K, x, fam.Sets[x], want)
			}
		}
	}
}
