package experiments

import (
	"fmt"
	"math/big"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/stats"
	"repro/internal/tablewriter"
)

// randomSchedule builds an arbitrary (not necessarily TT) schedule for the
// theorem-identity experiments.
func randomSchedule(rng *stats.RNG, n, l int, pT, pR float64) *core.Schedule {
	t := make([]*bitset.Set, l)
	r := make([]*bitset.Set, l)
	for i := 0; i < l; i++ {
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
	s, err := core.FromSets(n, t, r)
	if err != nil {
		panic(err)
	}
	return s
}

// scheduleCase names a schedule an experiment runs: the named base for
// N(n, D), and Construct's (αT, αR)-schedule over it when the caps are
// set.
type scheduleCase struct {
	name, base     string
	n, d           int
	alphaT, alphaR int
}

func (c scheduleCase) build() (*core.Schedule, error) {
	ns, err := schedcache.BuildBase(c.base, c.n, c.d)
	if err != nil || c.alphaT == 0 {
		return ns, err
	}
	return core.Construct(ns, core.ConstructOptions{AlphaT: c.alphaT, AlphaR: c.alphaR, D: c.d})
}

// cyclicSchedule builds a non-sleeping schedule with |T[i]| == k in every
// slot (cyclic windows), used to hit the Theorem 3 equality condition.
func cyclicSchedule(n, k, l int) (*core.Schedule, error) {
	t := make([][]int, l)
	for i := range t {
		slot := make([]int, k)
		for j := range slot {
			slot[j] = (i + j) % n
		}
		t[i] = slot
	}
	return core.NonSleeping(n, t)
}

// runE2 — Theorem 2: the closed form equals the Definition 2 brute force.
func runE2() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 2: closed form vs brute force (exact rationals)",
		"seed", "n", "L", "D", "closed-form", "brute-force", "equal")
	rng := stats.NewRNG(20070326)
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(3)
		l := 2 + rng.Intn(5)
		d := 1 + rng.Intn(n-1)
		s := randomSchedule(rng, n, l, 0.3, 0.7)
		cf := core.AvgThroughput(s, d)
		bf := core.AvgThroughputBruteForce(s, d)
		eq := cf.Cmp(bf) == 0
		tab.AddRow(trial, n, l, d, cf.RatString(), bf.RatString(), eq)
		if !eq {
			res.fail("trial %d: closed form %s != brute force %s", trial, cf, bf)
		}
	}
	res.Table = tab
	if res.Pass {
		res.note("All 12 random schedules: Theorem 2 closed form exactly equals Definition 2.")
	}
	return res, nil
}

// runE3 — Theorem 3: general upper bound, optimum, and equality condition.
func runE3() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 3: Thr★ and the loose bound nD^D/((n-D)(D+1)^(D+1))",
		"n", "D", "αT★", "Thr★", "loose bound", "equality sched Thr", "attains")
	one := big.NewRat(1, 1)
	_ = one
	for _, nd := range [][2]int{{6, 2}, {9, 2}, {12, 2}, {12, 3}, {16, 3}, {20, 4}, {25, 2}, {30, 5}} {
		n, d := nd[0], nd[1]
		a := core.OptimalTransmitters(n, d)
		star := core.GeneralThroughputBound(n, d)
		loose := core.LooseGeneralBound(n, d)
		if star.Cmp(loose) > 0 {
			res.fail("n=%d D=%d: Thr★ %s above the loose bound %s", n, d, star, loose)
		}
		eq, err := cyclicSchedule(n, a, n)
		if err != nil {
			return nil, err
		}
		thr := core.AvgThroughput(eq, d)
		attains := thr.Cmp(star) == 0
		if !attains {
			res.fail("n=%d D=%d: equality schedule got %s, want %s", n, d, thr, star)
		}
		tab.AddRow(n, d, a, star.RatString(), fmt.Sprintf("%.6f", ratF(loose)), thr.RatString(), attains)
	}
	res.Table = tab
	if res.Pass {
		res.note("Every (n, D): Thr★ <= loose bound, and a non-sleeping schedule with |T[i]| = αT★ attains Thr★ exactly.")
	}
	return res, nil
}

// runE4 — Theorem 4: (αT, αR) bound, capped optimum, equality condition.
func runE4() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 4: Thr★(αT,αR) over caps (n=12, D=2)",
		"αT", "αR", "αT★", "Thr★(αT,αR)", "equality sched Thr", "attains", "loose bound")
	const n, d = 12, 2
	for _, caps := range [][2]int{{1, 4}, {2, 4}, {3, 4}, {5, 4}, {8, 4}, {3, 2}, {3, 6}, {3, 9}} {
		alphaT, alphaR := caps[0], caps[1]
		aStar := core.OptimalTransmittersCapped(n, d, alphaT)
		bound := core.CappedThroughputBound(n, d, alphaT, alphaR)
		loose := core.LooseCappedBound(n, d, alphaR)
		if bound.Cmp(loose) > 0 {
			res.fail("αT=%d αR=%d: bound above loose bound", alphaT, alphaR)
		}
		// Equality schedule: exactly aStar transmitters, exactly alphaR
		// receivers per slot.
		var tS, rS [][]int
		for i := 0; i < n; i++ {
			ts := make([]int, aStar)
			for j := range ts {
				ts[j] = (i + j) % n
			}
			rs := make([]int, alphaR)
			for j := range rs {
				rs[j] = (i + aStar + j) % n
			}
			tS = append(tS, ts)
			rS = append(rS, rs)
		}
		s, err := core.New(n, tS, rS)
		if err != nil {
			return nil, err
		}
		thr := core.AvgThroughput(s, d)
		attains := thr.Cmp(bound) == 0
		if !attains {
			res.fail("αT=%d αR=%d: equality schedule %s != bound %s", alphaT, alphaR, thr, bound)
		}
		tab.AddRow(alphaT, alphaR, aStar, bound.RatString(), thr.RatString(), attains,
			fmt.Sprintf("%.6f", ratF(loose)))
	}
	res.Table = tab
	if res.Pass {
		res.note("Every cap pair: the bound is attained exactly by |T[i]| = αT★, |R[i]| = αR schedules and never exceeds the closed-form relaxation.")
	}
	return res, nil
}

// constructionInputs returns named TT non-sleeping inputs for E5-E7.
func constructionInputs() (map[string]*core.Schedule, map[string]int, error) {
	inputs := map[string]*core.Schedule{}
	ds := map[string]int{}
	for _, c := range []scheduleCase{
		{name: "tdma12", base: "tdma", n: 12, d: 3},
		{name: "poly25", base: "polynomial", n: 25, d: 2},
		{name: "steiner13", base: "steiner", n: 13, d: 2},
	} {
		s, err := c.build()
		if err != nil {
			return nil, nil, err
		}
		inputs[c.name], ds[c.name] = s, c.d
	}
	return inputs, ds, nil
}

// runE5 — Theorem 7: constructed frame length equals the formula and
// respects the cap.
func runE5() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 7: frame length of Construct output",
		"input", "n", "L", "αT", "αR", "αT★", "L̄ measured", "L̄ formula", "cap", "ok")
	inputs, ds, err := constructionInputs()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tdma12", "poly25", "steiner13"} {
		ns := inputs[name]
		d := ds[name]
		for _, caps := range [][2]int{{2, 3}, {3, 5}} {
			alphaT, alphaR := caps[0], caps[1]
			aStar := core.OptimalTransmittersCapped(ns.N(), d, alphaT)
			out, err := core.Construct(ns, core.ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
			if err != nil {
				return nil, err
			}
			formula := core.ConstructedFrameLength(ns, aStar, alphaR)
			cap := core.FrameLengthCap(ns, aStar, alphaR)
			ok := out.L() == formula && out.L() <= cap
			if !ok {
				res.fail("%s αT=%d αR=%d: L̄=%d formula=%d cap=%d", name, alphaT, alphaR, out.L(), formula, cap)
			}
			tab.AddRow(name, ns.N(), ns.L(), alphaT, alphaR, aStar, out.L(), formula, cap, ok)
		}
	}
	res.Table = tab
	if res.Pass {
		res.note("Measured frame lengths equal Σ⌈|T[i]|/αT★⌉⌈(n-|T[i]|)/αR⌉ and never exceed the closed-form cap.")
	}
	return res, nil
}

// runE6 — Theorem 8: measured optimality ratio vs the lower bound; equality
// when M_in >= αT★.
func runE6() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 8: Thr^ave/Thr★ of Construct output vs lower bound",
		"input", "αT", "αR", "αT★", "M_in", "ratio", "T8 bound", "ratio>=bound", "optimal")
	inputs, ds, err := constructionInputs()
	if err != nil {
		return nil, err
	}
	one := big.NewRat(1, 1)
	for _, name := range []string{"tdma12", "poly25", "steiner13"} {
		ns := inputs[name]
		d := ds[name]
		for _, caps := range [][2]int{{1, 3}, {2, 3}, {3, 5}, {4, 6}} {
			alphaT, alphaR := caps[0], caps[1]
			if alphaT+alphaR > ns.N() {
				continue
			}
			aStar := core.OptimalTransmittersCapped(ns.N(), d, alphaT)
			out, err := core.Construct(ns, core.ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
			if err != nil {
				return nil, err
			}
			ratio := core.OptimalityRatio(out, d, alphaT, alphaR)
			bound := core.Theorem8LowerBound(ns, d, alphaT, alphaR)
			min := ns.MinTransmitters()
			holds := ratio.Cmp(bound) >= 0 && ratio.Cmp(one) <= 0
			optimal := ratio.Cmp(one) == 0
			if !holds {
				res.fail("%s αT=%d αR=%d: ratio %s vs bound %s", name, alphaT, alphaR, ratio, bound)
			}
			if min >= aStar && !optimal {
				res.fail("%s αT=%d αR=%d: M_in >= αT★ but ratio %s != 1", name, alphaT, alphaR, ratio)
			}
			tab.AddRow(name, alphaT, alphaR, aStar, min,
				fmt.Sprintf("%.6f", ratF(ratio)), fmt.Sprintf("%.6f", ratF(bound)), holds, optimal)
		}
	}
	res.Table = tab
	if res.Pass {
		res.note("The measured ratio always lies in [Theorem-8 bound, 1], and equals 1 exactly when min_i |T[i]| >= αT★ (the paper's optimality condition).")
	}
	return res, nil
}

// runE7 — Theorem 9: minimum throughput of the construction.
func runE7() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 9: Thr^min of Construct output vs (L/L̄)·Thr^min(input)",
		"input", "αT", "αR", "Thr^min input", "Thr^min output", "T9 bound", "holds")
	inputs, ds, err := constructionInputs()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tdma12", "poly25", "steiner13"} {
		ns := inputs[name]
		d := ds[name]
		alphaT, alphaR := 2, 3
		out, err := core.Construct(ns, core.ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
		if err != nil {
			return nil, err
		}
		inMin := core.MinThroughput(ns, d)
		outMin := core.MinThroughput(out, d)
		bound := core.Theorem9Bound(ns, d, alphaT, alphaR)
		holds := outMin.Cmp(bound) >= 0 && outMin.Sign() > 0
		if !holds {
			res.fail("%s: Thr^min %s vs bound %s", name, outMin, bound)
		}
		tab.AddRow(name, alphaT, alphaR, inMin.RatString(), outMin.RatString(),
			fmt.Sprintf("%.6f", ratF(bound)), holds)
	}
	res.Table = tab
	if res.Pass {
		res.note("Constructed schedules keep strictly positive minimum throughput, always at or above (L/L̄)·Thr^min of the input.")
	}
	return res, nil
}

// runE8 — Theorem 1: Requirements 2 and 3 agree on every random schedule.
func runE8() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Theorem 1: Requirement 2 ⇔ Requirement 3 (random schedules)",
		"batch", "schedules", "TT by Req2", "TT by Req3", "disagreements")
	rng := stats.NewRNG(71)
	for batch := 0; batch < 5; batch++ {
		tt2, tt3, dis := 0, 0, 0
		const per = 60
		for i := 0; i < per; i++ {
			n := 3 + rng.Intn(4)
			l := 2 + rng.Intn(5)
			d := 1 + rng.Intn(n-1)
			s := randomSchedule(rng, n, l, 0.25+0.4*rng.Float64(), 0.4+0.5*rng.Float64())
			a := core.CheckRequirement2(s, d) == nil
			b := core.CheckRequirement3(s, d) == nil
			if a {
				tt2++
			}
			if b {
				tt3++
			}
			if a != b {
				dis++
			}
		}
		if dis != 0 {
			res.fail("batch %d: %d disagreements", batch, dis)
		}
		tab.AddRow(batch, per, tt2, tt3, dis)
	}
	res.Table = tab
	if res.Pass {
		res.note("300 random schedules: the two formulations of topology transparency never disagree.")
	}
	return res, nil
}

func ratF(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}
