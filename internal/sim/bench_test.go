package sim

import (
	"os"
	"testing"
	"time"

	"repro/internal/cff"
	"repro/internal/core"
	"repro/internal/topology"
)

// The Legacy/Fast suffix pairs below are recognized by cmd/ttdcbench,
// which derives reference-vs-SoA speedups into BENCH_sim.json on
// `make bench` — the simulator's analogue of core's Naive/Prefix pairs.
// The Legacy side runs the reference loops of oracle_test.go.

func benchPolySchedule(tb testing.TB, n, d int) *core.Schedule {
	tb.Helper()
	fam, err := cff.PolynomialFor(n, d)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchGraphs(n, d int) []*topology.Graph {
	return []*topology.Graph{
		topology.Regularish(n, d),
		topology.Ring(n),
		topology.Grid(32, n/32),
	}
}

func BenchmarkSaturationCampaignLegacy(b *testing.B) {
	const n, d, frames = 1024, 4, 8
	s := benchPolySchedule(b, n, d)
	graphs := benchGraphs(n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := runSaturationReference(g, s, frames, DefaultEnergy()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSaturationCampaignFast(b *testing.B) {
	const n, d, frames = 1024, 4, 8
	s := benchPolySchedule(b, n, d)
	graphs := benchGraphs(n, d)
	k, err := NewSaturationKernel(s, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := k.Run(g, frames, DefaultEnergy()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkConvergecastGridLegacy(b *testing.B) { benchConvergecast(b, true) }

func BenchmarkConvergecastGridFast(b *testing.B) { benchConvergecast(b, false) }

func benchConvergecast(b *testing.B, legacy bool) {
	b.Helper()
	const n, d = 256, 4
	s := benchPolySchedule(b, n, d)
	g := topology.Grid(16, 16)
	cfg := ConvergecastConfig{Sink: 0, Rate: 0.02, Frames: 20, Seed: 7}
	run := RunConvergecast
	if legacy {
		run = runConvergecastReference
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(g, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSaturationScale100k demonstrates the tentpole target: a single
// saturation frame at n = 10^5 completes on one core. Gated behind
// TTDC_SCALE because building the 10^5-node schedule and adjacency takes
// gigabytes and minutes, far beyond the tier-1 budget.
func TestSaturationScale100k(t *testing.T) {
	if os.Getenv("TTDC_SCALE") == "" {
		t.Skip("set TTDC_SCALE=1 to run the n=100000 scale demonstration")
	}
	const n, d = 100000, 4
	start := time.Now()
	s := benchPolySchedule(t, n, d)
	t.Logf("schedule built: n=%d L=%d (%.1fs)", s.N(), s.L(), time.Since(start).Seconds())
	g := topology.Regularish(n, d)
	t.Logf("topology built: %d nodes, %d edges (%.1fs)", g.N(), g.EdgeCount(), time.Since(start).Seconds())
	runStart := time.Now()
	res, err := RunSaturation(g, s, 1, DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(runStart)
	t.Logf("saturation frame: min=%v avg=%v collisions=%d gap=%d in %.1fs",
		res.MinLinkPerFrame, res.AvgLinkPerFrame, res.CollisionSlots, res.MaxInterDeliveryGap, elapsed.Seconds())
	if res.AvgLinkPerFrame <= 0 {
		t.Fatal("scale run delivered nothing")
	}
	if elapsed > 10*time.Minute {
		t.Fatalf("n=100000 frame took %v, want minutes on one core", elapsed)
	}
}

// BenchmarkSaturationJob is the simulator's share of one campaign
// saturation job: the kernel build and one two-frame Run on a fresh
// Construct output of the campaign's N(8300, 2), (250, 2000) class, on its
// CSR regular topology. Each iteration constructs its schedule outside the
// timer, so nothing a schedule derives on first read carries over from
// the previous iteration.
func BenchmarkSaturationJob(b *testing.B) {
	const n, d = 8300, 2
	base := benchPolySchedule(b, n, d)
	g := topology.Regularish(n, d)
	opts := core.ConstructOptions{AlphaT: 250, AlphaR: 2000, D: d}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.Construct(base, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		k, err := NewSaturationKernel(s, n)
		if err != nil {
			b.Fatal(err)
		}
		if benchSat, err = k.Run(g, 2, DefaultEnergy()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSat keeps the measured runs from being optimized away.
var benchSat *SaturationResult

// BenchmarkConvergecastCampaignJob is the simulator's share of one job of
// the campaign benchmark's convergecast grid at its (αT, αR) = (20, 120)
// point: one warm Run of a kernel built once, on a 20×20 grid with sink
// 0, over the Construct output of N(400, 4) with L = 729, at 0.002
// packets per node-slot for 3 frames. Its arrival draws (399 a slot) are
// the ScanAbove calls the block kernel serves.
func BenchmarkConvergecastCampaignJob(b *testing.B) {
	const n, d = 400, 4
	s, err := core.Construct(benchPolySchedule(b, n, d), core.ConstructOptions{AlphaT: 20, AlphaR: 120, D: d})
	if err != nil {
		b.Fatal(err)
	}
	if s.L() != 729 {
		b.Fatalf("L = %d, want the campaign's 729", s.L())
	}
	k, err := NewConvergecastKernel(topology.Grid(20, 20), s, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ConvergecastConfig{Sink: 0, Rate: 0.002, Frames: 3, Seed: 7}
	if benchCC, err = k.Run(cfg); err != nil { // warm the pooled scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchCC, err = k.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCC keeps the measured runs from being optimized away.
var benchCC *ConvergecastResult
