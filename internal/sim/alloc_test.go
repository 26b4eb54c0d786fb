//go:build !race

// The race detector instruments memory operations in ways that can
// allocate, so the allocation pins only run in the plain test pass
// (`make test`); `make race` still runs every functional test.

package sim

import (
	"testing"

	"repro/internal/topology"
)

// Result sinks keep the measured runs from being optimized away without
// allocating inside the measured closures.
var (
	sinkSat *SaturationResult
	sinkCC  *ConvergecastResult
)

// TestKernelAllocsWarm pins the simulator kernels' steady-state allocation
// budget: after pool warmup, a run may allocate only its result — the
// SaturationResult / ConvergecastResult struct and the slices inside it
// (a saturation run's link counts are one array) — never per-frame or
// per-shard scratch, which all comes from the sync.Pools. Three
// invariants:
//
//  1. each warm run stays under a fixed budget (the measured count plus a
//     little headroom);
//  2. a sharded run allocates exactly as much as the sequential run of the
//     same workload — the shard fan-out is fully pooled;
//  3. the saturation count is flat in the frame count. (Convergecast is
//     exempt from 3 only because its Delivered map grows with the traffic
//     actually delivered, which is result size, not scratch.)
func TestKernelAllocsWarm(t *testing.T) {
	const n = 24
	s := polySchedule(t, n, 2)
	g := topology.Regularish(n, 4)

	sat, err := NewSaturationKernel(s, n)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewConvergecastKernel(g, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccCfg := func(frames, shards int) ConvergecastConfig {
		return ConvergecastConfig{Sink: 0, Rate: 0.05, Frames: frames, Seed: 7, Shards: shards}
	}

	measure := func(call func()) float64 {
		call() // warm the pools before measuring
		return testing.AllocsPerRun(20, call)
	}

	const satBudget, ccBudget = 8.0, 32.0

	satSeq := measure(func() { sinkSat, _ = sat.Run(g, 2, DefaultEnergy()) })
	if satSeq > satBudget {
		t.Errorf("Saturation: %v allocs per warm run, budget %v", satSeq, satBudget)
	}
	satShard := measure(func() { sinkSat, _ = sat.RunSharded(g, 2, DefaultEnergy(), 4) })
	if satShard != satSeq {
		t.Errorf("SaturationSharded: %v allocs vs %v sequential; shard scratch must come from the pool", satShard, satSeq)
	}
	satLong := measure(func() { sinkSat, _ = sat.Run(g, 8, DefaultEnergy()) })
	if satLong != satSeq {
		t.Errorf("Saturation: %v allocs at 8 frames vs %v at 2; the warm path must not allocate per frame", satLong, satSeq)
	}

	ccSeq := measure(func() { sinkCC, _ = cc.Run(ccCfg(2, 1)) })
	if ccSeq > ccBudget {
		t.Errorf("Convergecast: %v allocs per warm run, budget %v", ccSeq, ccBudget)
	}
	ccShard := measure(func() { sinkCC, _ = cc.Run(ccCfg(2, 4)) })
	if ccShard != ccSeq {
		t.Errorf("ConvergecastSharded: %v allocs vs %v sequential; shard scratch must come from the pool", ccShard, ccSeq)
	}

	if sinkSat == nil || sinkCC == nil {
		t.Fatal("measured runs returned no results")
	}
}
