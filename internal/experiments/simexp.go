package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cff"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablewriter"
	"repro/internal/topology"
)

// runE1 — Figure 1: on a specific topology, scheduling nodes to sleep can
// preserve the delivered throughput of the non-sleeping schedule. The
// paper's figure is a worked instance of this phenomenon; we reconstruct it
// behaviourally: TDMA over a ring, with each receiver awake only in its
// neighbours' slots, delivers exactly as much per frame as full TDMA while
// sleeping most radios.
func runE1() (*Result, error) {
	res := &Result{Pass: true}
	const n = 6
	full, err := familySchedule(mustIdentity(n))
	if err != nil {
		return nil, err
	}
	ring := topology.Ring(n)
	// Sleeping variant: node v listens only in the slots of its actual ring
	// neighbours.
	tSets := make([][]int, n)
	rSets := make([][]int, n)
	for i := 0; i < n; i++ {
		tSets[i] = []int{i}
		rSets[i] = append([]int(nil), ring.Neighbors(i)...)
	}
	// rSets above is per-slot: slot i is node i's transmission slot, so its
	// receivers are i's neighbours.
	sleepy, err := core.New(n, tSets, rSets)
	if err != nil {
		return nil, err
	}
	em := sim.DefaultEnergy()
	fullRes, err := sim.RunSaturation(ring, full, 4, em)
	if err != nil {
		return nil, err
	}
	sleepRes, err := sim.RunSaturation(ring, sleepy, 4, em)
	if err != nil {
		return nil, err
	}
	tab := tablewriter.New("Figure 1: non-sleeping vs sleeping schedule on the ring topology",
		"schedule", "active fraction", "min link/frame", "avg link/frame", "energy (J)", "J per delivery")
	tab.AddRow("non-sleeping ⟨T⟩", fullRes.ActiveFraction, fullRes.MinLinkPerFrame,
		fullRes.AvgLinkPerFrame, fullRes.TotalEnergy, fullRes.EnergyPerDelivery)
	tab.AddRow("sleeping ⟨T,R⟩", sleepRes.ActiveFraction, sleepRes.MinLinkPerFrame,
		sleepRes.AvgLinkPerFrame, sleepRes.TotalEnergy, sleepRes.EnergyPerDelivery)
	res.Table = tab
	if sleepRes.MinLinkPerFrame != fullRes.MinLinkPerFrame ||
		sleepRes.AvgLinkPerFrame != fullRes.AvgLinkPerFrame {
		res.fail("per-topology throughput changed when nodes slept")
	}
	if sleepRes.ActiveFraction >= fullRes.ActiveFraction {
		res.fail("sleeping schedule did not reduce the active fraction")
	}
	if sleepRes.TotalEnergy >= fullRes.TotalEnergy {
		res.fail("sleeping schedule did not save energy")
	}
	if res.Pass {
		res.note("On the fixed ring, the sleeping schedule delivers the same packets per frame with %.0f%% of nodes awake instead of 100%%, cutting energy %.1fx — the paper's Figure 1 phenomenon.",
			100*sleepRes.ActiveFraction, fullRes.TotalEnergy/sleepRes.TotalEnergy)
	}
	return res, nil
}

func mustIdentity(n int) *cff.Family {
	f, err := cff.Identity(n)
	if err != nil {
		panic(err)
	}
	return f
}

// runE9 — simulation vs analysis: the saturation simulator must observe
// exactly the analytical guaranteed per-link counts, and its minimum link
// throughput must dominate Thr^min.
func runE9() (*Result, error) {
	res := &Result{Pass: true}
	tab := tablewriter.New("Simulation vs analysis (saturation, worst-case D-regular topologies)",
		"schedule", "n", "D", "L", "analytic Thr^min", "sim min thr", "sim avg thr", "exact link match")
	type cse struct {
		name string
		n, d int
		mk   func() (*core.Schedule, error)
	}
	cases := []cse{
		{"tdma", 10, 2, func() (*core.Schedule, error) { return familySchedule(mustIdentity(10)) }},
		{"poly", 9, 2, func() (*core.Schedule, error) {
			f, err := cff.PolynomialFor(9, 2)
			if err != nil {
				return nil, err
			}
			return familySchedule(f)
		}},
		{"poly-constructed", 9, 2, func() (*core.Schedule, error) {
			f, err := cff.PolynomialFor(9, 2)
			if err != nil {
				return nil, err
			}
			ns, err := familySchedule(f)
			if err != nil {
				return nil, err
			}
			return core.Construct(ns, core.ConstructOptions{AlphaT: 2, AlphaR: 3, D: 2})
		}},
		{"steiner-constructed", 12, 2, func() (*core.Schedule, error) {
			ns, err := familySchedule(mustSteiner(12))
			if err != nil {
				return nil, err
			}
			return core.Construct(ns, core.ConstructOptions{AlphaT: 2, AlphaR: 4, D: 2})
		}},
	}
	for _, c := range cases {
		s, err := c.mk()
		if err != nil {
			return nil, err
		}
		g := topology.Regularish(c.n, c.d)
		sat, err := sim.RunSaturation(g, s, 3, sim.DefaultEnergy())
		if err != nil {
			return nil, err
		}
		want := sim.GuaranteedPerLink(g, s)
		exact := true
		for u := 0; u < g.N(); u++ {
			for k, v := range g.Neighbors(u) {
				if sat.Delivered[u][k] != want[u][v]*sat.Frames {
					exact = false
				}
			}
		}
		minThr := ratF(core.MinThroughput(s, c.d))
		if !exact {
			res.fail("%s: simulated per-link counts diverge from the analytical 𝒯 sets", c.name)
		}
		if sat.MinLinkThroughput < minThr-1e-12 {
			res.fail("%s: simulated min %v below analytical Thr^min %v", c.name, sat.MinLinkThroughput, minThr)
		}
		tab.AddRow(c.name, c.n, c.d, s.L(), fmt.Sprintf("%.6f", minThr),
			sat.MinLinkThroughput, sat.AvgLinkThroughput, exact)
	}
	res.Table = tab
	if res.Pass {
		res.note("Under saturation the simulator reproduces the analytical guaranteed slot counts link-for-link, and every per-link rate dominates Thr^min (which minimizes over all class topologies).")
	}
	return res, nil
}

func mustSteiner(n int) *cff.Family {
	f, err := cff.Steiner(n)
	if err != nil {
		panic(err)
	}
	return f
}

// runE10 — the energy/latency/throughput trade-off duty cycling buys,
// swept over (αT, αR).
func runE10() (*Result, error) {
	res := &Result{Pass: true}
	const n, d = 25, 2
	fam, err := cff.PolynomialFor(n, d)
	if err != nil {
		return nil, err
	}
	ns, err := familySchedule(fam)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(2007)
	g := topology.RandomBoundedDegree(n, d, 3, rng)
	tab := tablewriter.New("Energy/latency/throughput trade-off (n=25, D=2, polynomial base, Poisson convergecast)",
		"schedule", "αT", "αR", "L", "active frac", "Thr^ave", "Thr^min",
		"delivery ratio", "p50 latency (slots)", "mJ/delivered")
	type row struct {
		name           string
		alphaT, alphaR int
		s              *core.Schedule
	}
	rows := []row{{name: "non-sleeping", s: ns, alphaT: ns.MaxTransmitters(), alphaR: n}}
	for _, caps := range [][2]int{{5, 20}, {5, 10}, {3, 6}, {2, 4}, {1, 2}} {
		out, err := core.Construct(ns, core.ConstructOptions{AlphaT: caps[0], AlphaR: caps[1], D: d})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{
			name:   fmt.Sprintf("construct(%d,%d)", caps[0], caps[1]),
			alphaT: caps[0], alphaR: caps[1], s: out,
		})
	}
	const slotsBudget = 40000
	var prevActive float64 = 2
	for _, r := range rows {
		frames := slotsBudget / r.s.L()
		if frames < 2 {
			frames = 2
		}
		cc, err := sim.RunConvergecast(g, r.s, sim.ConvergecastConfig{
			Sink: 0, Rate: 0.001, Frames: frames, WarmupFrames: frames / 10, Seed: 99,
		})
		if err != nil {
			return nil, err
		}
		active := r.s.ActiveFraction()
		tab.AddRow(r.name, r.alphaT, r.alphaR, r.s.L(),
			fmt.Sprintf("%.3f", active),
			fmt.Sprintf("%.6f", ratF(core.AvgThroughput(r.s, d))),
			fmt.Sprintf("%.6f", ratF(core.MinThroughput(r.s, d))),
			fmt.Sprintf("%.3f", cc.DeliveryRatio),
			cc.Latency.Median(),
			fmt.Sprintf("%.3f", 1000*cc.EnergyPerDelivered))
		if active > prevActive+1e-9 {
			res.fail("active fraction did not fall monotonically down the sweep (%s)", r.name)
		}
		prevActive = active
		if cc.Generated > 0 && cc.Delivered == 0 {
			res.fail("%s delivered nothing", r.name)
		}
	}
	res.Table = tab
	if res.Pass {
		res.note("Tighter (αT, αR) caps monotonically cut the awake fraction (energy) while frames lengthen and latency grows — the trade-off the paper's αT/αR knobs express. All configurations keep delivering (topology transparency).")
	}
	return res, nil
}

// runE11 — topology transparency under churn, against the
// topology-dependent coloring baseline; plus the frame-length comparison of
// the three cover-free constructions.
func runE11() (*Result, error) {
	res := &Result{Pass: true}
	const n, d = 20, 3
	fam, err := cff.PolynomialFor(n, d)
	if err != nil {
		return nil, err
	}
	ns, err := familySchedule(fam)
	if err != nil {
		return nil, err
	}
	tt, err := core.Construct(ns, core.ConstructOptions{AlphaT: 3, AlphaR: 6, D: d})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(1234)
	dep := topology.RandomGeometric(n, 0.35, rng)
	dep.Graph.EnforceMaxDegree(d, rng)
	coloring, err := baseline.ColoringTDMA(dep.Graph)
	if err != nil {
		return nil, err
	}
	tab := tablewriter.New("Topology churn: TT duty cycling vs topology-dependent coloring TDMA (n=20, D=3)",
		"step", "edges", "TT starved links", "coloring starved links")
	ttStarvedTotal, colStarvedTotal := 0, 0
	for step := 0; step <= 6; step++ {
		g := dep.Graph.Clone()
		g.EnforceMaxDegree(d, rng)
		ttRes, err := sim.RunSaturation(g, tt, 1, sim.DefaultEnergy())
		if err != nil {
			return nil, err
		}
		colRes, err := sim.RunSaturation(g, coloring, 1, sim.DefaultEnergy())
		if err != nil {
			return nil, err
		}
		ttStarved := countStarved(ttRes)
		colStarved := countStarved(colRes)
		ttStarvedTotal += ttStarved
		colStarvedTotal += colStarved
		tab.AddRow(step, g.EdgeCount(), ttStarved, colStarved)
		dep.Step(0.12, rng)
	}
	res.Table = tab
	if ttStarvedTotal != 0 {
		res.fail("topology-transparent schedule starved %d links across churn", ttStarvedTotal)
	}
	if colStarvedTotal == 0 {
		res.fail("coloring TDMA never starved a link under churn — the baseline contrast did not materialize")
	}
	if res.Pass {
		res.note("Across 7 churn steps the TT schedule starved 0 links while the coloring baseline starved %d — exactly the guarantee topology transparency buys (and what the topology-dependent scheme loses when nodes move).", colStarvedTotal)
	}

	// Second table: construction comparison.
	tab2 := tablewriter.New("Cover-free constructions (D=2): frame length vs node capacity",
		"n", "TDMA L", "polynomial L", "steiner L", "projective L")
	for _, n2 := range []int{7, 12, 25, 60, 100} {
		pf, err := cff.PolynomialFor(n2, 2)
		if err != nil {
			return nil, err
		}
		sf, err := cff.Steiner(n2)
		if err != nil {
			return nil, err
		}
		gf2, err := cff.ProjectiveFor(n2, 2)
		if err != nil {
			return nil, err
		}
		tab2.AddRow(n2, n2, pf.L, sf.L, gf2.L)
	}
	res.Notes = append(res.Notes, "Construction comparison (second table printed by cmd/ttdcsweep -exp E11):")
	var b strings.Builder
	if err := tab2.WriteText(&b); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, b.String())
	return res, nil
}

func countStarved(r *sim.SaturationResult) int {
	starved := 0
	for _, row := range r.Delivered {
		for _, d := range row {
			if d == 0 {
				starved++
			}
		}
	}
	return starved
}
