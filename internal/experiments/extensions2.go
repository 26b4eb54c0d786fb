package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablewriter"
	"repro/internal/topology"
)

// runE14 — adaptive duty cycling under bursty load: switching between a
// low-power and a high-throughput topology-transparent schedule at frame
// boundaries (the natural extension of the paper's static (αT, αR) choice;
// every frame played is still a full TT frame, so the per-frame link
// guarantee survives adaptation).
func runE14() (*Result, error) {
	res := &Result{Pass: true}
	const n, d = 25, 2
	high, err := schedcache.BuildBase("polynomial", n, d)
	if err != nil {
		return nil, err
	}
	low, err := core.Construct(high, core.ConstructOptions{AlphaT: 2, AlphaR: 4, D: d})
	if err != nil {
		return nil, err
	}
	g := topology.RandomBoundedDegree(n, d, 3, stats.NewRNG(14))
	// Bursty load: long quiet stretches punctuated by heavy bursts.
	phases := []sim.TrafficPhase{
		{Slots: 6000, Rate: 0.0001},
		{Slots: 1500, Rate: 0.01},
	}
	const slots = 45000
	type variant struct {
		name  string
		proto sim.Protocol
	}
	mkAdaptive := func() sim.Protocol {
		p, err := sim.NewAdaptive(low, high, 0.04, 0.005)
		if err != nil {
			panic(err)
		}
		return p
	}
	variants := []variant{
		{"static high (non-sleeping)", sim.ScheduleProtocol{S: high}},
		{"static low (2,4)", sim.ScheduleProtocol{S: low}},
		{"adaptive", mkAdaptive()},
	}
	tab := tablewriter.New("Adaptive duty cycling under bursty load (quiet 6000 slots / burst 1500 slots)",
		"protocol", "delivered", "delivery ratio", "p95 latency", "energy (J)", "J/delivered", "switches")
	type outcome struct {
		name     string
		res      *sim.ConvergecastResult
		switches int
	}
	var outs []outcome
	for _, v := range variants {
		frames := slots / v.proto.FrameLen()
		cc, err := sim.RunConvergecastProtocol(g, v.proto, sim.ConvergecastConfig{
			Sink: 0, Frames: frames, Seed: 5, Phases: phases,
		})
		if err != nil {
			return nil, err
		}
		switches := 0
		if ap, ok := v.proto.(*sim.AdaptiveProtocol); ok {
			switches = ap.Switches()
		}
		outs = append(outs, outcome{v.name, cc, switches})
		tab.AddRow(v.name, cc.Delivered, fmt.Sprintf("%.3f", cc.DeliveryRatio),
			cc.Latency.Percentile(95), fmt.Sprintf("%.3f", cc.TotalEnergy),
			fmt.Sprintf("%.4f", cc.EnergyPerDelivered), switches)
	}
	res.Table = tab
	highOut, lowOut, adOut := outs[0], outs[1], outs[2]
	if adOut.switches == 0 {
		res.fail("adaptive protocol never switched under bursty load")
	}
	if adOut.res.EnergyPerDelivered >= highOut.res.EnergyPerDelivered {
		res.fail("adaptive J/delivered %.4f not below always-on %.4f",
			adOut.res.EnergyPerDelivered, highOut.res.EnergyPerDelivered)
	}
	if adOut.res.DeliveryRatio <= lowOut.res.DeliveryRatio {
		res.fail("adaptive delivery %.3f not above static low %.3f",
			adOut.res.DeliveryRatio, lowOut.res.DeliveryRatio)
	}
	if res.Pass {
		res.note("Adaptive switching (%d transitions) delivers more than the static low-power schedule while spending less energy per delivered packet than the always-on schedule — and every frame played is still a full TT frame, so no link ever loses its guarantee.", adOut.switches)
	}
	return res, nil
}

// runE15 — robustness beyond the paper's model: the paper restricts
// failures to collisions (§3) and assumes synchronization (§1). This
// experiment measures how the guarantees degrade under erasures, capture,
// and clock drift, and confirms the RequiredResyncInterval threshold.
func runE15() (*Result, error) {
	res := &Result{Pass: true}
	const n, d = 16, 3
	ns, err := schedcache.BuildBase("polynomial", n, d)
	if err != nil {
		return nil, err
	}
	duty, err := core.Construct(ns, core.ConstructOptions{AlphaT: 3, AlphaR: 6, D: d})
	if err != nil {
		return nil, err
	}
	g := topology.Regularish(n, d)
	tab := tablewriter.New("Robustness beyond the collision-only model (duty-cycled schedule, saturated-ish convergecast)",
		"condition", "delivery ratio", "p50 latency", "collisions", "note")
	base := sim.ConvergecastConfig{Sink: 0, Rate: 0.002, Frames: 40000 / duty.L(), Seed: 15}
	run := func(name string, mod func(*sim.ConvergecastConfig), note string) *sim.ConvergecastResult {
		cfg := base
		mod(&cfg)
		cc, err := sim.RunConvergecast(g, duty, cfg)
		if err != nil {
			panic(err)
		}
		tab.AddRow(name, fmt.Sprintf("%.3f", cc.DeliveryRatio), cc.Latency.Median(),
			cc.Collisions, note)
		return cc
	}
	ideal := run("ideal channel", func(*sim.ConvergecastConfig) {}, "paper's model")
	loss10 := run("10% erasures", func(c *sim.ConvergecastConfig) {
		c.Channel = sim.Channel{LossProb: 0.1}
	}, "retransmissions absorb it")
	loss30 := run("30% erasures", func(c *sim.ConvergecastConfig) {
		c.Channel = sim.Channel{LossProb: 0.3}
	}, "graceful degradation")
	clockGood := run("40ppm drift, resync ok", func(c *sim.ConvergecastConfig) {
		m := sim.ClockModel{MaxDriftPPM: 40, GuardFraction: 0.1, Seed: 2}
		m.ResyncInterval = sim.RequiredResyncInterval(m)
		c.Clock = &m
	}, "within guard band")
	clockBad := run("40ppm drift, no resync", func(c *sim.ConvergecastConfig) {
		c.Clock = &sim.ClockModel{MaxDriftPPM: 40, GuardFraction: 0.1, Seed: 2}
	}, "sync assumption violated")

	if ideal.DeliveryRatio < 0.99 {
		res.fail("ideal-channel delivery %.3f below 0.99", ideal.DeliveryRatio)
	}
	if loss10.DeliveryRatio < 0.95 {
		res.fail("10%% erasures crushed delivery to %.3f", loss10.DeliveryRatio)
	}
	if !(loss30.DeliveryRatio <= loss10.DeliveryRatio && loss10.DeliveryRatio <= ideal.DeliveryRatio) {
		res.fail("delivery not monotone in loss rate")
	}
	if loss10.Latency.Median() <= ideal.Latency.Median() {
		res.fail("erasures should raise median latency")
	}
	if clockGood.DeliveryRatio < 0.99 {
		res.fail("adequately resynced clocks should not hurt delivery (%.3f)", clockGood.DeliveryRatio)
	}
	if clockBad.DeliveryRatio >= clockGood.DeliveryRatio {
		res.fail("unsynchronized clocks should hurt delivery")
	}
	res.Table = tab
	if res.Pass {
		res.note("The per-frame guaranteed slot turns erasures into latency (retransmissions) rather than loss; delivery degrades monotonically and gracefully. The synchronization assumption is load-bearing: resyncing within RequiredResyncInterval keeps the ideal behaviour, never resyncing eventually severs links.")
	}
	return res, nil
}
