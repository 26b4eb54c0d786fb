package sim

import (
	"math"
	"testing"

	"repro/internal/cff"
	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

func tdmaSchedule(t *testing.T, n int) *core.Schedule {
	t.Helper()
	fam, err := cff.Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func polySchedule(t *testing.T, n, d int) *core.Schedule {
	t.Helper()
	fam, err := cff.PolynomialFor(n, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaturationMatchesAnalyticalGuarantees(t *testing.T) {
	// On any topology within the class, the saturation simulator must
	// observe exactly the analytical per-link guaranteed counts: with every
	// node transmitting whenever eligible, deliveries happen in precisely
	// the 𝒯 slots.
	g := topology.Regularish(9, 2)
	s := polySchedule(t, 9, 2)
	res, err := RunSaturation(g, s, 3, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	want := GuaranteedPerLink(g, s)
	for u := 0; u < g.N(); u++ {
		for k, v := range g.Neighbors(u) {
			got := res.Delivered[u][k]
			if got != want[u][v]*res.Frames {
				t.Fatalf("link %d→%d: sim %d, analytic %d per frame × %d frames",
					u, v, got, want[u][v], res.Frames)
			}
		}
	}
	if res.MinLinkPerFrame < 1 {
		t.Fatalf("TT schedule must deliver ≥1 per frame per link, got %v", res.MinLinkPerFrame)
	}
}

func TestSaturationTDMAIsCollisionFree(t *testing.T) {
	g := topology.Ring(6)
	s := tdmaSchedule(t, 6)
	res, err := RunSaturation(g, s, 2, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionSlots != 0 {
		t.Fatalf("TDMA saturation produced %d collisions", res.CollisionSlots)
	}
	// Each directed ring link delivers exactly once per frame.
	if res.MinLinkPerFrame != 1 || res.AvgLinkPerFrame != 1 {
		t.Fatalf("per-frame deliveries min=%v avg=%v, want 1", res.MinLinkPerFrame, res.AvgLinkPerFrame)
	}
	if res.MinLinkThroughput != 1.0/6.0 {
		t.Fatalf("throughput %v, want 1/6", res.MinLinkThroughput)
	}
	// Non-sleeping schedule: everyone awake in every slot.
	if res.ActiveFraction != 1 {
		t.Fatalf("ActiveFraction = %v", res.ActiveFraction)
	}
}

func TestSaturationMinAboveScheduleMinThroughput(t *testing.T) {
	// Thr^min minimizes over every topology in the class, so any single
	// in-class topology must observe at least Thr^min per link.
	n, d := 9, 2
	s := polySchedule(t, n, d)
	minThr := combin.RatFloat(core.MinThroughput(s, d))
	g := topology.Regularish(n, d)
	res, err := RunSaturation(g, s, 2, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	if res.MinLinkThroughput < minThr-1e-12 {
		t.Fatalf("sim min %v below analytical Thr^min %v", res.MinLinkThroughput, minThr)
	}
}

func TestSaturationCollisionsOnDenseGraph(t *testing.T) {
	// A complete-ish graph with a schedule designed for D=2 must show
	// collisions (degrees exceed the class), demonstrating the simulator's
	// collision rule.
	g := topology.Regularish(9, 4)
	s := polySchedule(t, 9, 2) // only guarantees D=2
	res, err := RunSaturation(g, s, 1, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionSlots == 0 {
		t.Fatal("expected collisions when degree exceeds the class bound")
	}
}

func TestSaturationEnergyAccounting(t *testing.T) {
	g := topology.Ring(4)
	s := tdmaSchedule(t, 4)
	em := EnergyModel{TxPower: 2, RxPower: 1, SleepPower: 0, SlotSeconds: 1}
	res, err := RunSaturation(g, s, 1, em)
	if err != nil {
		t.Fatal(err)
	}
	// Per frame: 4 slots × (1 tx × 2W + 3 rx × 1W) = 4 × 5 = 20 J.
	if math.Abs(res.TotalEnergy-20) > 1e-9 {
		t.Fatalf("TotalEnergy = %v, want 20", res.TotalEnergy)
	}
	if res.EnergyPerDelivery <= 0 {
		t.Fatal("EnergyPerDelivery should be positive")
	}
}

func TestSaturationInputValidation(t *testing.T) {
	g := topology.Ring(10)
	s := tdmaSchedule(t, 4)
	if _, err := RunSaturation(g, s, 1, DefaultEnergy()); err == nil {
		t.Fatal("graph larger than schedule accepted")
	}
	g2 := topology.Ring(4)
	if _, err := RunSaturation(g2, s, 0, DefaultEnergy()); err == nil {
		t.Fatal("zero frames accepted")
	}
}

func TestConvergecastDeliversEverything(t *testing.T) {
	// Light load on a small line with TDMA: every packet should reach the
	// sink, in order, with plausible latency.
	g := topology.Line(5)
	s := tdmaSchedule(t, 5)
	res, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink:   0,
		Rate:   0.01,
		Frames: 400,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no packets generated")
	}
	if res.Delivered+res.InFlight+res.Dropped < res.Generated {
		t.Fatalf("packet conservation violated: gen=%d del=%d inflight=%d drop=%d",
			res.Generated, res.Delivered, res.InFlight, res.Dropped)
	}
	if res.DeliveryRatio < 0.9 {
		t.Fatalf("delivery ratio %v too low for light load", res.DeliveryRatio)
	}
	if res.Latency.N() == 0 || res.Latency.Min() < 1 {
		t.Fatalf("latency summary implausible: %v", res.Latency.String())
	}
	if res.Collisions != 0 {
		t.Fatalf("TDMA convergecast should be collision-free, got %d", res.Collisions)
	}
}

func TestConvergecastLatencyGrowsWithDistance(t *testing.T) {
	// A packet from the far end of a line must take at least one frame per
	// hop under TDMA (each hop waits for its slot).
	g := topology.Line(4)
	s := tdmaSchedule(t, 4)
	res, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink: 0, Rate: 0.002, Frames: 600, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.Latency.Max() < 3 {
		t.Fatalf("max latency %v implausibly small for a 3-hop line", res.Latency.Max())
	}
}

func TestConvergecastDutyCycledSavesEnergy(t *testing.T) {
	// The headline claim: a constructed (αT, αR)-schedule spends less
	// energy per slot than the non-sleeping original, while still
	// delivering.
	n, d := 9, 2
	ns := polySchedule(t, n, d)
	duty, err := core.Construct(ns, core.ConstructOptions{AlphaT: 2, AlphaR: 3, D: d})
	if err != nil {
		t.Fatal(err)
	}
	g := topology.RandomBoundedDegree(n, d, 2, stats.NewRNG(5))
	cfgFor := func(s *core.Schedule) ConvergecastConfig {
		return ConvergecastConfig{Sink: 0, Rate: 0.005, Frames: 3000 / s.L(), Seed: 11}
	}
	full, err := RunConvergecast(g, ns, cfgFor(ns))
	if err != nil {
		t.Fatal(err)
	}
	cycled, err := RunConvergecast(g, duty, cfgFor(duty))
	if err != nil {
		t.Fatal(err)
	}
	if cycled.ActiveFraction >= full.ActiveFraction {
		t.Fatalf("duty cycling did not reduce active fraction: %v vs %v",
			cycled.ActiveFraction, full.ActiveFraction)
	}
	if cycled.Delivered == 0 {
		t.Fatal("duty-cycled schedule delivered nothing")
	}
	// Per-slot energy must drop (that is what αR < n-αT buys).
	perSlotFull := full.TotalEnergy / float64(full.Generated+1)
	perSlotCycled := cycled.TotalEnergy / float64(cycled.Generated+1)
	_ = perSlotFull
	_ = perSlotCycled
	slotsFull := float64(ns.L() * (3000 / ns.L()))
	slotsCycled := float64(duty.L() * (3000 / duty.L()))
	if cycled.TotalEnergy/slotsCycled >= full.TotalEnergy/slotsFull {
		t.Fatalf("energy per slot did not drop: %v vs %v",
			cycled.TotalEnergy/slotsCycled, full.TotalEnergy/slotsFull)
	}
}

func TestConvergecastValidation(t *testing.T) {
	g := topology.Line(4)
	s := tdmaSchedule(t, 4)
	if _, err := RunConvergecast(g, s, ConvergecastConfig{Sink: 9, Rate: 0.1, Frames: 1}); err == nil {
		t.Fatal("bad sink accepted")
	}
	if _, err := RunConvergecast(g, s, ConvergecastConfig{Sink: 0, Rate: -1, Frames: 1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := RunConvergecast(g, s, ConvergecastConfig{Sink: 0, Rate: 0.1, Frames: 0}); err == nil {
		t.Fatal("zero frames accepted")
	}
	// Disconnected topology rejected.
	g2 := topology.NewGraph(4)
	g2.AddEdge(0, 1)
	if _, err := RunConvergecast(g2, s, ConvergecastConfig{Sink: 0, Rate: 0.1, Frames: 1}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestConvergecastQueueDrops(t *testing.T) {
	// Saturating rate with a tiny queue must drop packets.
	g := topology.Star(6)
	s := tdmaSchedule(t, 6)
	res, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink: 0, Rate: 0.9, Frames: 50, MaxQueue: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("expected drops under overload")
	}
	if res.DeliveryRatio >= 1 {
		t.Fatal("overload should not deliver everything")
	}
}

func TestConvergecastWarmupExcluded(t *testing.T) {
	g := topology.Line(3)
	s := tdmaSchedule(t, 3)
	res, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink: 0, Rate: 0.05, Frames: 100, WarmupFrames: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Energy includes warmup; counts only post-warmup. Just sanity checks.
	if res.Generated == 0 || res.TotalEnergy <= 0 {
		t.Fatal("warmup run produced no data")
	}
}

func TestPoissonDrawMean(t *testing.T) {
	rng := stats.NewRNG(123)
	const rate = 0.3
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poissonDraw(rng, rate)
	}
	mean := float64(sum) / n
	if math.Abs(mean-rate) > 0.01 {
		t.Fatalf("Poisson mean %v, want ~%v", mean, rate)
	}
}

func TestDefaultEnergyOrdering(t *testing.T) {
	em := DefaultEnergy()
	if !(em.RxPower > em.SleepPower && em.TxPower > em.SleepPower) {
		t.Fatal("energy model ordering broken")
	}
	if em.slotEnergy(true, false) != em.TxPower*em.SlotSeconds {
		t.Fatal("tx slot energy wrong")
	}
	if em.slotEnergy(false, true) != em.RxPower*em.SlotSeconds {
		t.Fatal("rx slot energy wrong")
	}
	if em.slotEnergy(false, false) != em.SleepPower*em.SlotSeconds {
		t.Fatal("sleep slot energy wrong")
	}
}

func BenchmarkSaturationPoly9(b *testing.B) {
	g := topology.Regularish(9, 2)
	fam, _ := cff.PolynomialFor(9, 2)
	s, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSaturation(g, s, 1, DefaultEnergy()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvergecastLine10(b *testing.B) {
	g := topology.Line(10)
	fam, _ := cff.Identity(10)
	s, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConvergecast(g, s, ConvergecastConfig{Sink: 0, Rate: 0.01, Frames: 20, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
