package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/stats"
)

// tdma returns the round-robin TDMA schedule over n nodes: L = n slots,
// T[i] = {i}, R[i] = V - {i}. It is topology-transparent for every
// D <= n-1.
func tdma(n int) *Schedule {
	t := make([][]int, n)
	for i := range t {
		t[i] = []int{i}
	}
	s, err := NonSleeping(n, t)
	if err != nil {
		panic(err)
	}
	return s
}

// randomSchedule builds a random (possibly sleeping, possibly useless)
// schedule: each node transmits with probability pT and otherwise receives
// with probability pR in each slot.
func randomSchedule(rng *stats.RNG, n, L int, pT, pR float64) *Schedule {
	t := make([]*bitset.Set, L)
	r := make([]*bitset.Set, L)
	for i := 0; i < L; i++ {
		t[i] = bitset.New(n)
		r[i] = bitset.New(n)
		for x := 0; x < n; x++ {
			if rng.Bool(pT) {
				t[i].Add(x)
			} else if rng.Bool(pR) {
				r[i].Add(x)
			}
		}
	}
	s, err := FromSets(n, t, r)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(4, [][]int{{0}}, [][]int{{1}, {2}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := New(4, [][]int{{4}}, [][]int{{1}}); err == nil {
		t.Fatal("out-of-range transmitter accepted")
	}
	if _, err := New(4, [][]int{{0}}, [][]int{{-1}}); err == nil {
		t.Fatal("negative receiver accepted")
	}
	if _, err := New(4, [][]int{{0, 1}}, [][]int{{1, 2}}); err == nil {
		t.Fatal("transmit+receive overlap accepted")
	}
	if _, err := New(0, [][]int{{}}, [][]int{{}}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := FromSets(4, nil, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	s, err := New(4, [][]int{{0}, {1, 2}}, [][]int{{1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.L() != 2 {
		t.Fatalf("N=%d L=%d", s.N(), s.L())
	}
}

func TestNonSleepingComplement(t *testing.T) {
	s := tdma(5)
	if !s.IsNonSleeping() {
		t.Fatal("tdma should be non-sleeping")
	}
	for i := 0; i < 5; i++ {
		if s.T(i).Count() != 1 || !s.T(i).Contains(i) {
			t.Fatalf("slot %d T = %v", i, s.T(i))
		}
		if s.R(i).Count() != 4 || s.R(i).Contains(i) {
			t.Fatalf("slot %d R = %v", i, s.R(i))
		}
	}
}

// checkNodeViews compares every node's Tran and Recv views with a
// bit-by-bit transpose of the slot sets, and the role census that
// RoleCensus, ActiveFraction and IsNonSleeping read with a recount of
// every slot.
func checkNodeViews(t *testing.T, name string, s *Schedule) {
	t.Helper()
	tc, rc, nonSleeping := 0, 0, true
	for i := 0; i < s.L(); i++ {
		tc += s.T(i).Count()
		rc += s.R(i).Count()
		nonSleeping = nonSleeping && s.T(i).Count()+s.R(i).Count() == s.N()
	}
	if gt, gr := s.RoleCensus(); gt != tc || gr != rc {
		t.Fatalf("%s: RoleCensus() = %d, %d, want %d, %d", name, gt, gr, tc, rc)
	}
	if want := float64(tc+rc) / float64(s.N()*s.L()); s.ActiveFraction() != want {
		t.Fatalf("%s: ActiveFraction() = %v, want %v", name, s.ActiveFraction(), want)
	}
	if s.IsNonSleeping() != nonSleeping {
		t.Fatalf("%s: IsNonSleeping() = %v, want %v", name, s.IsNonSleeping(), nonSleeping)
	}
	for x := 0; x < s.N(); x++ {
		tran, recv := bitset.New(s.L()), bitset.New(s.L())
		for i := 0; i < s.L(); i++ {
			if s.T(i).Contains(x) {
				tran.Add(i)
			}
			if s.R(i).Contains(x) {
				recv.Add(i)
			}
		}
		if s.Tran(x).Cap() != s.L() || !s.Tran(x).Equal(tran) {
			t.Fatalf("%s: tran(%d) = %v, want %v", name, x, s.Tran(x), tran)
		}
		if s.Recv(x).Cap() != s.L() || !s.Recv(x).Equal(recv) {
			t.Fatalf("%s: recv(%d) = %v, want %v", name, x, s.Recv(x), recv)
		}
	}
}

func TestTranRecvViews(t *testing.T) {
	s, err := New(4, [][]int{{0, 1}, {2}, {0}}, [][]int{{2, 3}, {0, 3}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Tran(0).Elements(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("tran(0) = %v", got)
	}
	if got := s.Recv(3).Elements(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("recv(3) = %v", got)
	}
	if !s.Tran(3).Empty() {
		t.Fatalf("tran(3) = %v", s.Tran(3))
	}
	checkNodeViews(t, "New 4x3", s)
}

// TestTranRecvViewsEveryConstructor checks the per-node views of every
// schedule constructor at node counts and frame lengths around the 64-bit
// word boundaries.
func TestTranRecvViewsEveryConstructor(t *testing.T) {
	rng := stats.NewRNG(41)
	sizes := []int{1, 2, 63, 64, 65, 130}
	for _, n := range sizes {
		for _, l := range sizes {
			name := func(ctor string) string { return fmt.Sprintf("%s n=%d L=%d", ctor, n, l) }
			fs := randomSchedule(rng, n, l, 0.3, 0.5) // FromSets
			checkNodeViews(t, name("FromSets"), fs)

			tl, rl := make([][]int, l), make([][]int, l)
			for i := 0; i < l; i++ {
				tl[i], rl[i] = fs.T(i).Elements(), fs.R(i).Elements()
			}
			s, err := New(n, tl, rl)
			if err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("New"), s)
			if s, err = NonSleeping(n, tl); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("NonSleeping"), s)

			fam := make([]*bitset.Set, n)
			for x := range fam {
				fam[x] = bitset.New(l)
				for i := 0; i < l; i++ {
					if rng.Bool(0.4) {
						fam[x].Add(i)
					}
				}
			}
			if s, err = ScheduleFromFamily(l, fam); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("ScheduleFromFamily"), s)
			for x := range fam {
				if !s.Tran(x).Equal(fam[x]) {
					t.Fatalf("%s: tran(%d) = %v, want member set %v", name("ScheduleFromFamily"), x, s.Tran(x), fam[x])
				}
			}

			perm := rng.Perm(n)
			if s, err = PermuteNodes(fs, perm); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("PermuteNodes"), s)
			checkNodeViews(t, name("RotateSlots"), RotateSlots(fs, l/2+1))
			if s, err = Concat(fs, fs); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("Concat"), s)
			if s, err = Repeat(fs, 2); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("Repeat"), s)
			if s, err = Restrict(fs, (n+1)/2); err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, name("Restrict"), s)
			checkNodeViews(t, name("Clone"), fs.Clone())
		}
	}
}

// TestTranRecvViewsConstruct checks Construct's node views under both
// strategies, including classes whose receiver subsets line 8 pads.
func TestTranRecvViewsConstruct(t *testing.T) {
	for _, c := range []struct{ n, d, alphaT, alphaR int }{
		{9, 2, 2, 7}, // |V - T[i]| = 6 < αR: every receiver subset padded
		{25, 2, 3, 5},
		{63, 2, 5, 40},
		{64, 3, 1, 3},
		{65, 2, 4, 60},   // padded
		{130, 2, 5, 120}, // padded, three words of nodes
	} {
		base := polySchedule(t, c.n, c.d)
		for _, st := range []DivisionStrategy{Sequential, Balanced} {
			s, err := Construct(base, ConstructOptions{AlphaT: c.alphaT, AlphaR: c.alphaR, D: c.d, Strategy: st})
			if err != nil {
				t.Fatal(err)
			}
			checkNodeViews(t, fmt.Sprintf("Construct %s n=%d D=%d (%d,%d)", st, c.n, c.d, c.alphaT, c.alphaR), s)
		}
	}
}

// viewsDerived reports whether s has transposed its slot sets into node
// views yet.
func viewsDerived(s *Schedule) bool { return s.tran != nil || s.recv != nil }

// TestMissPathLeavesViewsUnderived pins what the serving tier's cold path
// reads: building a base, running Construct on it and taking the Theorem 2
// closed form, the active fraction and the slot sets must leave both
// schedules' node views underived.
func TestMissPathLeavesViewsUnderived(t *testing.T) {
	base := polySchedule(t, 25, 2)
	out, err := Construct(base, ConstructOptions{AlphaT: 3, AlphaR: 5, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{base, out} {
		_ = s.N() + s.L()
		for i := 0; i < s.L(); i++ {
			_ = s.T(i).Count() + s.R(i).Count()
		}
		_ = s.ActiveFraction()
		_ = s.IsNonSleeping()
		_ = AvgThroughput(s, 2)
	}
	if viewsDerived(base) || viewsDerived(out) {
		t.Fatalf("node views derived on the miss path: base %v, Construct output %v", viewsDerived(base), viewsDerived(out))
	}
	// The first reader derives them.
	_ = out.Tran(0)
	if !viewsDerived(out) || viewsDerived(base) {
		t.Fatalf("Tran derived views: base %v, output %v; want only the output's", viewsDerived(base), viewsDerived(out))
	}
}

// TestNodeViewsConcurrentFirstUse races the first readers of a fresh
// schedule's node views: 16 goroutines start together on Tran, Recv,
// TSlots and NewVerifier, and the views they leave must be the bit-by-bit
// transpose. make race-conc runs it ten times under the race detector.
func TestNodeViewsConcurrentFirstUse(t *testing.T) {
	s, err := Construct(polySchedule(t, 65, 2), ConstructOptions{AlphaT: 4, AlphaR: 60, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if viewsDerived(s) {
		t.Fatal("views derived before the first read")
	}
	start := make(chan struct{})
	counts := make([]int, 16)
	var wg sync.WaitGroup
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			x := g % s.N()
			switch g % 4 {
			case 0:
				counts[g] = s.Tran(x).Count()
			case 1:
				counts[g] = s.Recv(x).Count()
			case 2:
				counts[g] = s.TSlots(x, (x+1)%s.N(), nil).Count()
			default:
				if NewVerifier(s, 2).Requirement3() == nil {
					counts[g] = 1
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	checkNodeViews(t, "concurrent first use", s)
	for g, c := range counts {
		x := g % s.N()
		var want int
		switch g % 4 {
		case 0:
			want = s.Tran(x).Count()
		case 1:
			want = s.Recv(x).Count()
		case 2:
			want = s.TSlots(x, (x+1)%s.N(), nil).Count()
		default:
			want = 1 // Construct preserves topology transparency (Theorem 6)
		}
		if c != want {
			t.Fatalf("goroutine %d read %d, want %d", g, c, want)
		}
	}
}

// TestFromSetsClones pins FromSets' copy: changing the caller's sets after
// the call leaves the schedule, and its node views, unchanged.
func TestFromSetsClones(t *testing.T) {
	ts := []*bitset.Set{bitset.FromSlice(70, []int{0, 65}), bitset.FromSlice(70, []int{3})}
	rs := []*bitset.Set{bitset.FromSlice(70, []int{1, 69}), bitset.FromSlice(70, []int{0, 64})}
	s, err := FromSets(70, ts, rs)
	if err != nil {
		t.Fatal(err)
	}
	ts[0].Add(10)
	ts[1].Clear()
	rs[0].Remove(69)
	rs[1].Add(2)
	ts[0], rs[1] = bitset.New(70), bitset.New(70)
	if got := s.T(0).Elements(); len(got) != 2 || got[0] != 0 || got[1] != 65 {
		t.Fatalf("T(0) = %v after mutating the input", got)
	}
	if got := s.T(1).Elements(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("T(1) = %v after mutating the input", got)
	}
	if got := s.R(0).Elements(); len(got) != 2 || got[1] != 69 {
		t.Fatalf("R(0) = %v after mutating the input", got)
	}
	if got := s.R(1).Elements(); len(got) != 2 || got[0] != 0 || got[1] != 64 {
		t.Fatalf("R(1) = %v after mutating the input", got)
	}
	if !s.Tran(10).Empty() || !s.Recv(69).Contains(0) || s.Recv(2).Contains(1) {
		t.Fatal("node views follow the caller's sets")
	}
	checkNodeViews(t, "FromSets after mutation", s)
}

func TestFreeSlots(t *testing.T) {
	s := tdma(5)
	fs := s.FreeSlots(0, []int{1, 2})
	if got := fs.Elements(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("freeSlots = %v", got)
	}
	// A node that transmits in the same slot removes it.
	s2, err := New(3, [][]int{{0, 1}}, [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.FreeSlots(0, []int{1}).Empty() {
		t.Fatal("slot shared with y should not be free")
	}
}

func TestFreeSlotsPanicsOnSelf(t *testing.T) {
	s := tdma(4)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeSlots with x in Y should panic")
		}
	}()
	s.FreeSlots(1, []int{1})
}

func TestSigmaAndTSlots(t *testing.T) {
	// Slot 0: 0 transmits, 1 receives. Slot 1: 2 transmits, 1 receives.
	// Slot 2: 0 transmits, nobody receives.
	s, err := New(3, [][]int{{0}, {2}, {0}}, [][]int{{1}, {1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sigma(0, 1).Elements(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("σ(0,1) = %v", got)
	}
	if !s.Sigma(1, 0).Empty() {
		t.Fatal("σ(1,0) should be empty")
	}
	// 𝒯(0, 1, {2}): slot 0 free of 2's transmissions and 1 receiving.
	if got := s.TSlots(0, 1, []int{2}).Elements(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("𝒯 = %v", got)
	}
	// With neighbour 2 absent the answer is identical here.
	if got := s.TSlots(0, 1, nil).Elements(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("𝒯 = %v", got)
	}
}

func TestRoleOf(t *testing.T) {
	s, err := New(3, [][]int{{0}, {1}}, [][]int{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.RoleOf(0, 0) != Transmit || s.RoleOf(1, 0) != Receive || s.RoleOf(2, 0) != Sleep {
		t.Fatal("slot 0 roles wrong")
	}
	// Absolute slot numbers wrap around the frame.
	if s.RoleOf(1, 3) != Transmit {
		t.Fatal("RoleOf should wrap modulo L")
	}
	if Transmit.String() != "transmit" || Sleep.String() != "sleep" || Receive.String() != "receive" {
		t.Fatal("Role strings wrong")
	}
}

func TestAlphaScheduleAndCounts(t *testing.T) {
	s, err := New(5, [][]int{{0, 1}, {2}}, [][]int{{2, 3}, {3, 4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsAlphaSchedule(2, 3) {
		t.Fatal("should satisfy (2,3)")
	}
	if s.IsAlphaSchedule(1, 3) {
		t.Fatal("should violate αT = 1")
	}
	if s.IsAlphaSchedule(2, 2) {
		t.Fatal("should violate αR = 2")
	}
	if s.MinTransmitters() != 1 || s.MaxTransmitters() != 2 || s.MaxReceivers() != 3 {
		t.Fatalf("counts: %d %d %d", s.MinTransmitters(), s.MaxTransmitters(), s.MaxReceivers())
	}
}

func TestActiveFractionAndDutyCycle(t *testing.T) {
	s := tdma(4)
	if got := s.ActiveFraction(); got != 1 {
		t.Fatalf("non-sleeping ActiveFraction = %v", got)
	}
	for x := 0; x < 4; x++ {
		if got := s.DutyCycle(x); got != 1 {
			t.Fatalf("DutyCycle(%d) = %v", x, got)
		}
	}
	// Half the nodes sleep in every slot here.
	s2, err := New(4, [][]int{{0}, {1}}, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ActiveFraction(); got != 0.5 {
		t.Fatalf("ActiveFraction = %v", got)
	}
	if got := s2.DutyCycle(3); got != 0 {
		t.Fatalf("DutyCycle(3) = %v", got)
	}
}

func TestCloneIsDeepAndEqualBehaviour(t *testing.T) {
	s := tdma(4)
	c := s.Clone()
	if c.N() != s.N() || c.L() != s.L() {
		t.Fatal("Clone changed shape")
	}
	for i := 0; i < s.L(); i++ {
		if !c.T(i).Equal(s.T(i)) || !c.R(i).Equal(s.R(i)) {
			t.Fatal("Clone changed content")
		}
	}
}

// TestStringRendering pins the exact text form: a slot with an empty
// receiver set, and a Construct output whose receiver subsets line 8 pads
// (the text was recorded from the per-slot Sprintf renderer).
func TestStringRendering(t *testing.T) {
	s, err := New(3, [][]int{{0}, {}}, [][]int{{1, 2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "schedule n=3 L=2\n  slot 0: T={0} R={1, 2}\n  slot 1: T={} R={}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	c, err := Construct(polySchedule(t, 9, 2), ConstructOptions{AlphaT: 2, AlphaR: 7, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	const padded = `schedule n=9 L=18
  slot 0: T={0, 3} R={1, 2, 4, 5, 6, 7, 8}
  slot 1: T={3, 6} R={0, 1, 2, 4, 5, 7, 8}
  slot 2: T={1, 4} R={0, 2, 3, 5, 6, 7, 8}
  slot 3: T={4, 7} R={0, 1, 2, 3, 5, 6, 8}
  slot 4: T={2, 5} R={0, 1, 3, 4, 6, 7, 8}
  slot 5: T={5, 8} R={0, 1, 2, 3, 4, 6, 7}
  slot 6: T={0, 5} R={1, 2, 3, 4, 6, 7, 8}
  slot 7: T={5, 7} R={0, 1, 2, 3, 4, 6, 8}
  slot 8: T={1, 3} R={0, 2, 4, 5, 6, 7, 8}
  slot 9: T={3, 8} R={0, 1, 2, 4, 5, 6, 7}
  slot 10: T={2, 4} R={0, 1, 3, 5, 6, 7, 8}
  slot 11: T={4, 6} R={0, 1, 2, 3, 5, 7, 8}
  slot 12: T={0, 4} R={1, 2, 3, 5, 6, 7, 8}
  slot 13: T={4, 8} R={0, 1, 2, 3, 5, 6, 7}
  slot 14: T={1, 5} R={0, 2, 3, 4, 6, 7, 8}
  slot 15: T={5, 6} R={0, 1, 2, 3, 4, 7, 8}
  slot 16: T={2, 3} R={0, 1, 4, 5, 6, 7, 8}
  slot 17: T={3, 7} R={0, 1, 2, 4, 5, 6, 8}`
	if got := c.String(); got != padded {
		t.Fatalf("String of the padded Construct output =\n%s\nwant\n%s", got, padded)
	}
}

// TestStringLinear bounds the text renderer's allocation on a large
// Construct output: everything String allocates must stay under 8× the
// text it returns. Concatenating per slot allocated quadratically (2.8 s
// for this schedule).
func TestStringLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=1000 schedule")
	}
	s, err := Construct(polySchedule(t, 1000, 3), ConstructOptions{AlphaT: 20, AlphaR: 120, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := s.String()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8*uint64(len(out)) {
		t.Fatalf("String allocated %d bytes for %d bytes of text (L = %d), want < 8×", alloc, len(out), s.L())
	}
}
