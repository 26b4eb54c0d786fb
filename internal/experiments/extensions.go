package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablewriter"
	"repro/internal/topology"
)

// runE12 — worst-case hop latency: the abstract's "bounding packet latency
// in the presence of collisions". The analytical bound (largest cyclic gap
// between guaranteed slots, over every link and neighbourhood in the class)
// must dominate the worst wait a saturated simulation ever observes, and be
// at most L-1 for every topology-transparent schedule.
func runE12() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Worst-case hop latency: analytic bound vs saturated simulation",
		"schedule", "n", "D", "L", "analytic bound (slots)", "<= L-1", "sim max gap", "sim <= bound")
	for _, c := range []scheduleCase{
		{"tdma10", "tdma", 10, 2, 0, 0},
		{"poly9", "polynomial", 9, 2, 0, 0},
		{"poly9-constructed(2,3)", "polynomial", 9, 2, 2, 3},
		{"steiner12-constructed(2,4)", "steiner", 12, 2, 2, 4},
	} {
		s, err := c.build()
		if err != nil {
			return nil, err
		}
		bound, ok := core.WorstCaseHopLatency(s, c.d)
		if !ok {
			res.fail("%s: no finite latency bound (not TT?)", c.name)
			continue
		}
		withinL := bound <= s.L()-1
		if !withinL {
			res.fail("%s: bound %d exceeds L-1 = %d", c.name, bound, s.L()-1)
		}
		g := topology.Regularish(c.n, c.d)
		sat, err := sim.RunSaturation(g, s, 4, sim.DefaultEnergy())
		if err != nil {
			return nil, err
		}
		within := sat.MaxInterDeliveryGap <= bound
		if !within {
			res.fail("%s: simulated gap %d exceeds analytic bound %d",
				c.name, sat.MaxInterDeliveryGap, bound)
		}
		tab.AddRow(c.name, c.n, c.d, s.L(), bound, withinL, sat.MaxInterDeliveryGap, within)
	}
	res.Table = tab
	if res.Pass {
		res.note("Every topology-transparent schedule bounds the wait for a collision-free slot by its largest guaranteed-slot gap (<= L-1); saturated simulation never waits longer — the latency guarantee the abstract promises.")
	}
	return res, nil
}

// runE13 — ablation of the §7 balanced-energy division: Sequential vs
// Balanced must agree on frame length and average throughput exactly
// (Theorems 7-8 are division-independent), while Balanced equalizes
// per-node activity.
func runE13() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Division-strategy ablation (αT=2, αR=3): invariants vs energy spread",
		"input", "strategy", "L̄", "Thr^ave", "node activity min..max", "spread", "Gini")
	inputs, ds, err := constructionInputs()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tdma12", "poly25"} {
		ns := inputs[name]
		d := ds[name]
		var lengths [2]int
		var thrs [2]string
		var spreads [2]int
		for si, strat := range []core.DivisionStrategy{core.Sequential, core.Balanced} {
			out, err := core.Construct(ns, core.ConstructOptions{
				AlphaT: 2, AlphaR: 3, D: d, Strategy: strat,
			})
			if err != nil {
				return nil, err
			}
			minAct, maxAct := out.L()*2, 0
			activity := make([]float64, out.N())
			for x := 0; x < out.N(); x++ {
				act := out.Tran(x).Count() + out.Recv(x).Count()
				activity[x] = float64(act)
				if act < minAct {
					minAct = act
				}
				if act > maxAct {
					maxAct = act
				}
			}
			thr := core.AvgThroughput(out, d)
			lengths[si] = out.L()
			thrs[si] = thr.RatString()
			spreads[si] = maxAct - minAct
			tab.AddRow(name, strat.String(), out.L(), thr.RatString(),
				intRange(minAct, maxAct), maxAct-minAct,
				fmt.Sprintf("%.4f", stats.Gini(activity)))
		}
		if lengths[0] != lengths[1] {
			res.fail("%s: frame length differs across strategies (%d vs %d)", name, lengths[0], lengths[1])
		}
		if thrs[0] != thrs[1] {
			res.fail("%s: Thr^ave differs across strategies (%s vs %s)", name, thrs[0], thrs[1])
		}
		if spreads[1] > spreads[0] {
			res.fail("%s: balanced spread %d worse than sequential %d", name, spreads[1], spreads[0])
		}
		// For tdma12 the divisibility conditions of the §7 remark hold
		// (every slot has one transmitter; the 12 receiver-extras spread
		// one per node), so near-exact balance is achievable.
		if name == "tdma12" && spreads[1] > 2 {
			res.fail("%s: balanced spread %d despite divisible input", name, spreads[1])
		}
	}
	res.Table = tab
	if res.Pass {
		res.note("Frame length and average throughput are bit-identical across division strategies (as Theorems 7-8 require). The balanced division never widens the per-node activity spread and achieves near-exact balance whenever the §7 divisibility conditions hold; where subset sizes do not divide the slot populations (poly25: coverage 6/5 and 21/20), a residual spread is unavoidable for any division.")
	}
	return res, nil
}

func intRange(lo, hi int) string {
	return fmt.Sprintf("%d..%d", lo, hi)
}
