package engine

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/schedcache"
)

// benchCampaign is the fixed workload of the engine perf trajectory
// (BENCH_engine.json): 24 saturation jobs over a duty-cycle grid with a
// shared schedule cache, the shape a parameter search over cover-free
// families actually has.
func benchCampaign() *Campaign {
	return &Campaign{
		Name:         "bench",
		Construction: "polynomial",
		N:            []int{25},
		D:            []int{2},
		Duty:         []DutyPoint{{}, {AlphaT: 2, AlphaR: 4}, {AlphaT: 3, AlphaR: 5}},
		Topology:     "geometric",
		Workload:     "saturation",
		Frames:       4,
		Replications: 8,
		Seed:         1,
	}
}

func benchmarkCampaign(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		jobs, err := Jobs(benchCampaign(), schedcache.New(16))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := New(Options{Workers: workers}).Run(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 {
			b.Fatalf("%d jobs failed: %v", rep.Failed, rep.FailedIDs())
		}
	}
}

func BenchmarkCampaignWorkers1(b *testing.B)   { benchmarkCampaign(b, 1) }
func BenchmarkCampaignWorkersMax(b *testing.B) { benchmarkCampaign(b, 0) }

func benchmarkSweep(b *testing.B, workers int) {
	ids := experiments.IDs()
	for i := 0; i < b.N; i++ {
		rep, err := New(Options{Workers: workers}).Run(context.Background(), ExperimentJobs(ids, false, 1))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 {
			b.Fatalf("%d experiments failed: %v", rep.Failed, rep.FailedIDs())
		}
	}
}

// The wall clock of the full E1..E17 suite at one worker and at
// GOMAXPROCS — ttdcsweep -workers 1 against its default.
func BenchmarkSweepWorkers1(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepWorkersMax(b *testing.B) { benchmarkSweep(b, 0) }
