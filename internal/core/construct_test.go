package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/cff"
	"repro/internal/stats"
)

// buildInputs returns a selection of topology-transparent non-sleeping
// schedules (with their D) for construction tests.
func buildInputs(t *testing.T) []struct {
	name string
	ns   *Schedule
	d    int
} {
	t.Helper()
	polyFam, err := cff.PolynomialFor(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	steinerFam, err := cff.Steiner(12)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		ns   *Schedule
		d    int
	}{
		{"tdma8/D3", tdma(8), 3},
		{"tdma6/D2", tdma(6), 2},
		{"poly9/D2", mustFromFamily(t, polyFam), 2},
		{"steiner12/D2", mustFromFamily(t, steinerFam), 2},
	}
}

func TestConstructTheorem6Correctness(t *testing.T) {
	// Theorem 6: the output is an (αT, αR)-schedule that is TT for N(n, D).
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		for _, alphas := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, n - 3}} {
			alphaT, alphaR := alphas[0], alphas[1]
			if alphaT+alphaR > n || alphaR < 1 {
				continue
			}
			for _, strat := range []DivisionStrategy{Sequential, Balanced} {
				out, err := Construct(in.ns, ConstructOptions{
					AlphaT: alphaT, AlphaR: alphaR, D: in.d, Strategy: strat,
				})
				if err != nil {
					t.Fatalf("%s αT=%d αR=%d %v: %v", in.name, alphaT, alphaR, strat, err)
				}
				if !out.IsAlphaSchedule(alphaT, alphaR) {
					t.Fatalf("%s: output violates (%d, %d) caps", in.name, alphaT, alphaR)
				}
				if w := CheckRequirement3(out, in.d); w != nil {
					t.Fatalf("%s αT=%d αR=%d %v: output not TT: %v",
						in.name, alphaT, alphaR, strat, w)
				}
			}
		}
	}
}

func TestConstructTheorem7FrameLength(t *testing.T) {
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		alphaT, alphaR := 2, 3
		if alphaT+alphaR > n {
			continue
		}
		aStar := OptimalTransmittersCapped(n, in.d, alphaT)
		out, err := Construct(in.ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: in.d})
		if err != nil {
			t.Fatal(err)
		}
		want := ConstructedFrameLength(in.ns, aStar, alphaR)
		if out.L() != want {
			t.Fatalf("%s: frame length %d, want %d", in.name, out.L(), want)
		}
		if cap := FrameLengthCap(in.ns, aStar, alphaR); out.L() > cap {
			t.Fatalf("%s: frame length %d exceeds Theorem 7 cap %d", in.name, out.L(), cap)
		}
	}
}

func TestConstructTheorem8Optimality(t *testing.T) {
	// When min_i |T[i]| >= αT★ the constructed schedule attains the Theorem
	// 4 bound exactly; otherwise the measured ratio respects the Theorem 8
	// lower bound.
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		for _, alphas := range [][2]int{{1, 2}, {2, 3}, {3, 3}} {
			alphaT, alphaR := alphas[0], alphas[1]
			if alphaT+alphaR > n {
				continue
			}
			out, err := Construct(in.ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: in.d})
			if err != nil {
				t.Fatal(err)
			}
			ratio := OptimalityRatio(out, in.d, alphaT, alphaR)
			lower := Theorem8LowerBound(in.ns, in.d, alphaT, alphaR)
			one := big.NewRat(1, 1)
			if ratio.Cmp(one) > 0 {
				t.Fatalf("%s: ratio %s exceeds 1", in.name, ratio)
			}
			if ratio.Cmp(lower) < 0 {
				t.Fatalf("%s αT=%d αR=%d: ratio %s below Theorem 8 bound %s",
					in.name, alphaT, alphaR, ratio, lower)
			}
			aStar := OptimalTransmittersCapped(n, in.d, alphaT)
			if in.ns.MinTransmitters() >= aStar && ratio.Cmp(one) != 0 {
				t.Fatalf("%s αT=%d αR=%d: M_in >= αT★ but ratio = %s != 1",
					in.name, alphaT, alphaR, ratio)
			}
		}
	}
}

func TestConstructTheorem9MinThroughput(t *testing.T) {
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		alphaT, alphaR := 2, 3
		if alphaT+alphaR > n {
			continue
		}
		out, err := Construct(in.ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: in.d})
		if err != nil {
			t.Fatal(err)
		}
		got := MinThroughput(out, in.d)
		bound := Theorem9Bound(in.ns, in.d, alphaT, alphaR)
		if got.Cmp(bound) < 0 {
			t.Fatalf("%s: Thr^min %s below Theorem 9 bound %s", in.name, got, bound)
		}
		if got.Sign() <= 0 {
			t.Fatalf("%s: constructed schedule has zero minimum throughput", in.name)
		}
	}
}

func TestConstructGuaranteedSlotsNeverShrink(t *testing.T) {
	// The key step of the Theorem 9 proof: per (x, y, S) the constructed
	// schedule has at least as many guaranteed slots per frame as the
	// original.
	fam, err := cff.PolynomialFor(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	ns := mustFromFamily(t, fam)
	out, err := Construct(ns, ConstructOptions{AlphaT: 2, AlphaR: 3, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	forEachTriple(ns, 2, func(x, y int, set []int) bool {
		before := ns.TSlots(x, y, set).Count()
		after := out.TSlots(x, y, set).Count()
		if after < before {
			t.Fatalf("(%d→%d | %v): %d guaranteed slots before, %d after", x, y, set, before, after)
		}
		return true
	})
}

func TestConstructExactAlphaRemark(t *testing.T) {
	// Remark after Theorem 6: with UseExactAlphaT and every |T[i]| >= αT',
	// the output has exactly αT' transmitters and exactly αR receivers per
	// slot.
	fam, err := cff.PolynomialFor(16, 3) // member sets of size q >= 4
	if err != nil {
		t.Fatal(err)
	}
	ns := mustFromFamily(t, fam)
	alphaT, alphaR := 2, 4
	out, err := Construct(ns, ConstructOptions{
		AlphaT: alphaT, AlphaR: alphaR, UseExactAlphaT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.L(); i++ {
		if out.T(i).Count() != alphaT {
			t.Fatalf("slot %d has %d transmitters, want exactly %d", i, out.T(i).Count(), alphaT)
		}
		if out.R(i).Count() != alphaR {
			t.Fatalf("slot %d has %d receivers, want exactly %d", i, out.R(i).Count(), alphaR)
		}
	}
	if w := CheckRequirement3(out, 3); w != nil {
		t.Fatalf("exact-α output not TT: %v", w)
	}
}

func TestConstructReceiversAlwaysExactlyAlphaR(t *testing.T) {
	// The Theorem 8 proof requires |R̄[i]| = αR in every emitted slot
	// (padding, line 8).
	for _, in := range buildInputs(t) {
		n := in.ns.N()
		alphaT, alphaR := 2, 3
		if alphaT+alphaR > n {
			continue
		}
		out, err := Construct(in.ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: in.d})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < out.L(); i++ {
			if out.R(i).Count() != alphaR {
				t.Fatalf("%s: slot %d has %d receivers, want %d", in.name, i, out.R(i).Count(), alphaR)
			}
		}
	}
}

func TestConstructBalancedPreservesEnergyBalance(t *testing.T) {
	// §7 closing remark: if the input is balanced (same per-slot transmitter
	// count, same per-node activity share), the Balanced strategy output
	// keeps per-node transmission and activity counts near-uniform (cyclic
	// windows are exact when m | ks; within one occurrence otherwise).
	ns := tdma(8) // perfectly balanced input
	out, err := Construct(ns, ConstructOptions{AlphaT: 1, AlphaR: 3, D: 3, Strategy: Balanced})
	if err != nil {
		t.Fatal(err)
	}
	minTx, maxTx := out.L(), 0
	minAct, maxAct := out.L()*2, 0
	for x := 0; x < out.N(); x++ {
		tx := out.Tran(x).Count()
		act := tx + out.Recv(x).Count()
		if tx < minTx {
			minTx = tx
		}
		if tx > maxTx {
			maxTx = tx
		}
		if act < minAct {
			minAct = act
		}
		if act > maxAct {
			maxAct = act
		}
	}
	if maxTx-minTx > 1 {
		t.Fatalf("transmission counts spread %d..%d", minTx, maxTx)
	}
	if maxAct-minAct > 2 {
		t.Fatalf("activity counts spread %d..%d", minAct, maxAct)
	}
}

func TestConstructInvalidInputs(t *testing.T) {
	ns := tdma(6)
	cases := []ConstructOptions{
		{AlphaT: 0, AlphaR: 2, D: 2},
		{AlphaT: 2, AlphaR: 0, D: 2},
		{AlphaT: 4, AlphaR: 3, D: 2}, // αT + αR > n
		{AlphaT: 2, AlphaR: 2, D: 0},
		{AlphaT: 2, AlphaR: 2, D: 6},
	}
	for i, opts := range cases {
		if _, err := Construct(ns, opts); err == nil {
			t.Fatalf("case %d accepted invalid options %+v", i, opts)
		}
	}
	// Sleeping input rejected.
	sleepy, err := New(4, [][]int{{0}}, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Construct(sleepy, ConstructOptions{AlphaT: 1, AlphaR: 1, D: 2}); err == nil {
		t.Fatal("sleeping input accepted")
	}
}

func TestConstructSkipsEmptySlots(t *testing.T) {
	// A slot where nobody transmits contributes no entries.
	ts := [][]int{{0}, {}, {1}, {2}}
	ns, err := NonSleeping(3, ts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Construct(ns, ConstructOptions{AlphaT: 1, AlphaR: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.L() != 3 {
		t.Fatalf("L = %d, want 3 (empty slot dropped)", out.L())
	}
	if w := CheckRequirement3(out, 2); w != nil {
		t.Fatalf("not TT: %v", w)
	}
}

func TestDivideProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := 1 + rng.Intn(30)
		size := 1 + rng.Intn(10)
		elems := rng.Perm(m)
		for _, subs := range [][][]int{divideSequential(elems, size), divideBalanced(elems, size, make([]int, m))} {
			want := (m + minInt2(size, m) - 1) / minInt2(size, m)
			if len(subs) != want {
				return false
			}
			covered := map[int]bool{}
			for _, sub := range subs {
				if len(sub) != minInt2(size, m) {
					return false
				}
				seen := map[int]bool{}
				for _, e := range sub {
					if seen[e] {
						return false // duplicate inside one subset
					}
					seen[e] = true
					covered[e] = true
				}
			}
			if len(covered) != m {
				return false // union must be everything
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDivideBalancedWithinOne(t *testing.T) {
	// Balanced division coverage counts differ by at most one.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := 1 + rng.Intn(30)
		size := 1 + rng.Intn(10)
		elems := make([]int, m)
		for i := range elems {
			elems[i] = i
		}
		subs := divideBalanced(elems, size, make([]int, m))
		counts := make([]int, m)
		for _, sub := range subs {
			for _, e := range sub {
				counts[e]++
			}
		}
		mn, mx := counts[0], counts[0]
		for _, c := range counts {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		return mx-mn <= 1 && mn >= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructPropertyRandomTTInputs(t *testing.T) {
	// Full pipeline property: random TT non-sleeping schedule (built from a
	// verified random family) → Construct → output TT with caps respected.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 5 + rng.Intn(4) // 5..8
		d := 2
		// Random non-sleeping schedule; retry until TT (TDMA always is, so
		// mixing in identity slots guarantees termination).
		var ns *Schedule
		for tries := 0; ; tries++ {
			L := n + rng.Intn(5)
			tSets := make([]*Schedule, 0)
			_ = tSets
			raw := make([][]int, L)
			for i := 0; i < L; i++ {
				if i < n {
					raw[i] = []int{i} // embed TDMA so Req1 always holds
				}
				for x := 0; x < n; x++ {
					if rng.Bool(0.25) && i >= n {
						raw[i] = append(raw[i], x)
					}
				}
				if len(raw[i]) == 0 {
					raw[i] = []int{rng.Intn(n)}
				}
			}
			s, err := NonSleeping(n, raw)
			if err != nil {
				return false
			}
			if CheckRequirement1(s, d) == nil {
				ns = s
				break
			}
			if tries > 10 {
				return true // skip pathological seeds
			}
		}
		alphaT := 1 + rng.Intn(2)
		alphaR := 1 + rng.Intn(n-alphaT)
		out, err := Construct(ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
		if err != nil {
			return false
		}
		return out.IsAlphaSchedule(alphaT, alphaR) && CheckRequirement3(out, d) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sequentialOracle is the Sequential division built from element lists,
// sharing no code with Construct's rank/select runs: each slot's elements
// (AppendElements), divideSequential's chunks of them, one set per chunk
// filled element by element, and padOracle's full scan for line 8. sizeT
// is the transmitter subset size Construct targets (αT★, or αT itself
// under UseExactAlphaT).
func sequentialOracle(ns *Schedule, sizeT, alphaR int) (outT, outR []*bitset.Set) {
	n := ns.N()
	var tElems, rElems []int
	for i := 0; i < ns.L(); i++ {
		tElems = ns.T(i).AppendElements(tElems[:0])
		rElems = ns.R(i).AppendElements(rElems[:0])
		if len(tElems) == 0 {
			continue
		}
		for _, tSub := range divideSequential(tElems, sizeT) {
			for _, rSub := range divideSequential(rElems, alphaR) {
				tSet, rSet := bitset.FromSlice(n, tSub), bitset.FromSlice(n, rSub)
				padOracle(rSet, tSet, alphaR)
				outT = append(outT, tSet)
				outR = append(outR, rSet)
			}
		}
	}
	return outT, outR
}

// divideSequential splits elems into k = ⌈m/size⌉ chunks of min(size, m)
// consecutive elements (lines 3-4 of Figure 2); the last chunk, when
// short, is extended backwards, so chunks may overlap.
func divideSequential(elems []int, size int) [][]int {
	m := len(elems)
	if m == 0 {
		return nil
	}
	if size > m {
		size = m
	}
	k := (m + size - 1) / size
	out := make([][]int, k)
	for j := 0; j < k; j++ {
		start := j * size
		if start+size > m {
			start = m - size
		}
		out[j] = elems[start : start+size : start+size]
	}
	return out
}

// padOracle extends rSet to alphaR nodes with the smallest ids in neither
// set, probing every id in turn (line 8 of Figure 2 under Sequential).
func padOracle(rSet, tSet *bitset.Set, alphaR int) {
	for v := 0; v < rSet.Cap() && rSet.Count() < alphaR; v++ {
		if !tSet.Contains(v) && !rSet.Contains(v) {
			rSet.Add(v)
		}
	}
}

// checkAgainstOracle builds ns under opts with Construct's Sequential
// division and compares every output slot's T and R with the oracle's.
func checkAgainstOracle(t testing.TB, name string, ns *Schedule, opts ConstructOptions) {
	t.Helper()
	sizeT := opts.AlphaT
	if !opts.UseExactAlphaT {
		sizeT = OptimalTransmittersCapped(ns.N(), opts.D, opts.AlphaT)
	}
	wantT, wantR := sequentialOracle(ns, sizeT, opts.AlphaR)
	opts.Strategy = Sequential
	out, err := Construct(ns, opts)
	if len(wantT) == 0 {
		if err == nil {
			t.Fatalf("%s %+v: Construct returned L = %d, the oracle no slots", name, opts, out.L())
		}
		return
	}
	if err != nil {
		t.Fatalf("%s %+v: %v", name, opts, err)
	}
	if out.L() != len(wantT) {
		t.Fatalf("%s %+v: L = %d, oracle %d", name, opts, out.L(), len(wantT))
	}
	for i := range wantT {
		if !out.T(i).Equal(wantT[i]) || !out.R(i).Equal(wantR[i]) {
			t.Fatalf("%s %+v: slot %d is T=%v R=%v, oracle T=%v R=%v",
				name, opts, i, out.T(i), out.R(i), wantT[i], wantR[i])
		}
	}
}

// polynomialBase is the polynomial (orthogonal-array) base for N(n, d).
func polynomialBase(t testing.TB, n, d int) *Schedule {
	t.Helper()
	fam, err := cff.PolynomialFor(n, d)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// withEdgeSlots returns ns with a slot nobody transmits in put first, one
// everybody transmits in (so nobody receives) in the middle, and another
// empty slot last; Construct skips all three.
func withEdgeSlots(t testing.TB, ns *Schedule) *Schedule {
	t.Helper()
	all := make([]int, ns.N())
	for x := range all {
		all[x] = x
	}
	slots := [][]int{{}}
	for i := 0; i < ns.L(); i++ {
		if i == ns.L()/2 {
			slots = append(slots, all)
		}
		slots = append(slots, ns.T(i).Elements())
	}
	out, err := NonSleeping(ns.N(), append(slots, []int{}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleCase is one Construct input of the oracle differential and the
// Balanced digests.
type oracleCase struct {
	name string
	ns   *Schedule
	opts ConstructOptions
}

// oracleCases returns polynomial N(n, 2) bases at n on both sides of the
// 64- and 128-node word edges, plain and with edge slots, each under
// ordinary caps, caps whose αR exceeds every |R[i]| (so line 8 pads every
// receiver subset) and UseExactAlphaT.
func oracleCases(t testing.TB) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		base := polynomialBase(t, n, 2)
		for _, in := range []struct {
			name string
			ns   *Schedule
		}{{fmt.Sprintf("poly%d", n), base}, {fmt.Sprintf("poly%d+edges", n), withEdgeSlots(t, base)}} {
			for _, opts := range []ConstructOptions{
				{AlphaT: 2, AlphaR: 5, D: 2},
				{AlphaT: 3, AlphaR: n - 3, D: 2},
				{AlphaT: 3, AlphaR: 7, UseExactAlphaT: true},
			} {
				cases = append(cases, oracleCase{in.name, in.ns, opts})
			}
		}
	}
	return cases
}

// TestConstructMatchesOracle holds the rank/select Sequential division to
// the element-list oracle slot by slot: on the word-edge cases, where
// line 8 pads and empty and full slots are skipped, and on one class of
// the campaign benchmark, N(8492, 2) at (250, 2000).
func TestConstructMatchesOracle(t *testing.T) {
	for _, c := range oracleCases(t) {
		checkAgainstOracle(t, c.name, c.ns, c.opts)
	}
	checkAgainstOracle(t, "poly8492", polynomialBase(t, 8492, 2), ConstructOptions{AlphaT: 250, AlphaR: 2000, D: 2})
}

// balancedDigests are the SHA-256 digests of Schedule.String() for every
// oracle case built with the Balanced division, recorded before the
// Sequential division moved to rank/select. The Balanced division did not
// change, so neither may its outputs.
var balancedDigests = map[string]string{
	"poly63 2/5 exact=false":          "58fd79ae89b459d468c2381b12f7cd757d85b308044db23cd7d1956fbeadbe86",
	"poly63 3/60 exact=false":         "7b6fade201964d87f4db1f47828708c1edf609d446a96b2a74ad64a9d865a29c",
	"poly63 3/7 exact=true":           "a3fd23a2adb1851446b958405e161f4e1f13a9b94e6995b774df44fb969c259c",
	"poly63+edges 2/5 exact=false":    "84cba16a34ddeead235180d5440a01a460ddbb91bbbd23c65896a6d46039920a",
	"poly63+edges 3/60 exact=false":   "7b6fade201964d87f4db1f47828708c1edf609d446a96b2a74ad64a9d865a29c",
	"poly63+edges 3/7 exact=true":     "a3fd23a2adb1851446b958405e161f4e1f13a9b94e6995b774df44fb969c259c",
	"poly64 2/5 exact=false":          "0e7c9871a9f48611fa81cea2285870c98ea7dc9b2d33b1e4add5f24a14989511",
	"poly64 3/61 exact=false":         "11f20681daccd9f62c651570707e5acd558b42c03437ba59b0b57938179e703f",
	"poly64 3/7 exact=true":           "43e72f91e50a1d1c79890120c7f5ae94834cef2ac2b0df875c6bc2e812920129",
	"poly64+edges 2/5 exact=false":    "0e7c9871a9f48611fa81cea2285870c98ea7dc9b2d33b1e4add5f24a14989511",
	"poly64+edges 3/61 exact=false":   "73fd51417486b991ff5db044b2a0f5d5475fb1fa4255d6a2e0452ad4463901f3",
	"poly64+edges 3/7 exact=true":     "e6cf6e5bfeaed16c7c40c7b5e038704f1ed61bc5afa8135a4169f8feb6d1112b",
	"poly65 2/5 exact=false":          "df64a7ddc683473ed33df7c0881a4db442a825b1f4720a6b263f3d13776165f9",
	"poly65 3/62 exact=false":         "8d068d3f118f140b1b3b3ec24253665cd0fa83a368005ab1f89dd42a5a22f4c8",
	"poly65 3/7 exact=true":           "948fb8694163d67687b9a5c9003b542e820981545dcadf42b41a2b492a01ed10",
	"poly65+edges 2/5 exact=false":    "40cce9a6094445126d379a5fff3f14517d10873cc626a9ad9c5df50bd58c2a0b",
	"poly65+edges 3/62 exact=false":   "cc22c892ffc92bdb0da9b3be7abd762caec11f6f75a950b7191de74b0c8be391",
	"poly65+edges 3/7 exact=true":     "0e7181ab773cd23dbfdfdd01e93b5fa6af92d855443e07468149a2638603adba",
	"poly127 2/5 exact=false":         "ec72e4830765c74fb17a6f1da32811ee8f16cbc3c1a4b49719503eaefd8a89b8",
	"poly127 3/124 exact=false":       "d0e7f5a9ec7f0cce5dbdde0f4a23544685a7edac8ff480813fa5f722834305f5",
	"poly127 3/7 exact=true":          "608ff6e4c81b268baa9f894fdc9b1bf86b7df0d5e394c9b6b86f512df6ab51dc",
	"poly127+edges 2/5 exact=false":   "ec72e4830765c74fb17a6f1da32811ee8f16cbc3c1a4b49719503eaefd8a89b8",
	"poly127+edges 3/124 exact=false": "d0e7f5a9ec7f0cce5dbdde0f4a23544685a7edac8ff480813fa5f722834305f5",
	"poly127+edges 3/7 exact=true":    "608ff6e4c81b268baa9f894fdc9b1bf86b7df0d5e394c9b6b86f512df6ab51dc",
	"poly128 2/5 exact=false":         "91e254fdb1553c69dd1a6068eb2f64a8955b8ce6005449ec5f91c3737110af71",
	"poly128 3/125 exact=false":       "fce78268035ddd152cbd2a8438220926958899dd534b0ce2c29435af7a261f7a",
	"poly128 3/7 exact=true":          "3fa47f6c7ccb273c0b9fe44636b05a21b33daca4355491f10f3bc7952d134070",
	"poly128+edges 2/5 exact=false":   "91e254fdb1553c69dd1a6068eb2f64a8955b8ce6005449ec5f91c3737110af71",
	"poly128+edges 3/125 exact=false": "fce78268035ddd152cbd2a8438220926958899dd534b0ce2c29435af7a261f7a",
	"poly128+edges 3/7 exact=true":    "3fa47f6c7ccb273c0b9fe44636b05a21b33daca4355491f10f3bc7952d134070",
	"poly129 2/5 exact=false":         "cdf9edd386ebd12befd89c41011a3a5bb4bb6c5d1bb77940683bdcfa186e76d3",
	"poly129 3/126 exact=false":       "165976ef3c8aa6fea2c7221a282072dc5b44ea99e61a4753829179ccaf5f81a1",
	"poly129 3/7 exact=true":          "1ea90f72975b458fcd3eb9cb90232483806faaabf829b046afb228011f03b726",
	"poly129+edges 2/5 exact=false":   "00b7fc2141d031d81c95e254957dba61b439e38c486b3c653cc6fb2bec3e137d",
	"poly129+edges 3/126 exact=false": "165976ef3c8aa6fea2c7221a282072dc5b44ea99e61a4753829179ccaf5f81a1",
	"poly129+edges 3/7 exact=true":    "1ea90f72975b458fcd3eb9cb90232483806faaabf829b046afb228011f03b726",
}

func TestConstructBalancedMatchesRecorded(t *testing.T) {
	for _, c := range oracleCases(t) {
		opts := c.opts
		opts.Strategy = Balanced
		out, err := Construct(c.ns, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.name, opts, err)
		}
		key := fmt.Sprintf("%s %d/%d exact=%v", c.name, opts.AlphaT, opts.AlphaR, opts.UseExactAlphaT)
		sum := sha256.Sum256([]byte(out.String()))
		if got := hex.EncodeToString(sum[:]); got != balancedDigests[key] {
			t.Errorf("%s: Balanced output digest %s, recorded %s", key, got, balancedDigests[key])
		}
	}
}

// FuzzConstructSequential compares every output slot of the Sequential
// division with the element-list oracle on random non-sleeping schedules:
// n up to 200 nodes across word edges, up to 24 slots of random density
// (empty and full slots included), random caps and D, with and without
// UseExactAlphaT.
func FuzzConstructSequential(f *testing.F) {
	f.Add(uint64(1), uint8(63), uint8(9), uint8(64), uint8(2), uint8(5), uint8(2), false)
	f.Add(uint64(2), uint8(64), uint8(16), uint8(128), uint8(3), uint8(60), uint8(2), false)
	f.Add(uint64(3), uint8(65), uint8(5), uint8(200), uint8(1), uint8(63), uint8(1), true)
	f.Add(uint64(4), uint8(129), uint8(24), uint8(30), uint8(7), uint8(100), uint8(3), false)
	f.Add(uint64(5), uint8(200), uint8(3), uint8(0), uint8(5), uint8(5), uint8(4), false)
	f.Add(uint64(6), uint8(128), uint8(12), uint8(255), uint8(2), uint8(120), uint8(2), true)
	f.Add(uint64(7), uint8(2), uint8(1), uint8(128), uint8(1), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, nb, lb, density, at, ar, db uint8, exact bool) {
		n := 2 + int(nb)%199
		l := 1 + int(lb)%24
		rng := stats.NewRNG(seed)
		slots := make([][]int, l)
		for i := range slots {
			for x := 0; x < n; x++ {
				if rng.Intn(256) < int(density) {
					slots[i] = append(slots[i], x)
				}
			}
		}
		ns, err := NonSleeping(n, slots)
		if err != nil {
			t.Fatal(err)
		}
		alphaT := 1 + int(at)%(n-1)
		alphaR := 1 + int(ar)%(n-alphaT)
		d := 1 + int(db)%(n-1)
		checkAgainstOracle(t, "fuzz", ns, ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d, UseExactAlphaT: exact})
	})
}

// BenchmarkConstructCampaign runs Construct on polynomial bases of the
// campaign benchmark's saturation classes: N(8492, 2) at (250, 2000),
// L = 81 → 1296, and N(8400, 3) at (500, 4000).
func BenchmarkConstructCampaign(b *testing.B) {
	for _, c := range []struct {
		name           string
		n, d           int
		alphaT, alphaR int
	}{
		{"N8492D2", 8492, 2, 250, 2000},
		{"N8400D3", 8400, 3, 500, 4000},
	} {
		ns := polynomialBase(b, c.n, c.d)
		opts := ConstructOptions{AlphaT: c.alphaT, AlphaR: c.alphaR, D: c.d}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Construct(ns, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
