//go:build !race

// The race detector instruments memory operations in ways that can
// allocate, so the allocation pins only run in the plain test pass
// (`make test`); `make race` still runs every functional test.

package sim

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/topology"
)

// Result sinks keep the measured runs from being optimized away without
// allocating inside the measured closures.
var (
	sinkSat *SaturationResult
	sinkCC  *ConvergecastResult
)

// TestKernelAllocsWarm pins the simulator kernels' steady-state allocation
// budget: after pool warmup, a sequential run may allocate only its
// result — the SaturationResult / ConvergecastResult struct and the
// slices inside it (a saturation run's link counts are one array) —
// never per-frame scratch, which all comes from the sync.Pools. It runs
// at n = 130, three 64-node words, so shard counts 2 and 3 really split
// the run and start worker goroutines. Three invariants:
//
//  1. each warm sequential run stays under a fixed budget (the measured
//     count plus a little headroom);
//  2. a sharded run allocates at most shardRunAllocs more than the
//     sequential run of the same workload, and exactly as many more at 2
//     frames as at 8: the fan-out (a goroutine, a channel and a closure
//     per extra shard, and the worker set) is paid once per run, never per
//     frame or per round;
//  3. the saturation count is flat in the frame count. (Convergecast is
//     exempt from 3 only because its Latency summary grows with the
//     packets actually delivered, which is result size, not scratch.)
//
// It runs once per resolve path: the Go loop and, where the CPU has it,
// the resolve kernel, whose rows come from the same pooled scratch.
func TestKernelAllocsWarm(t *testing.T) {
	for _, on := range resolvePaths() {
		name := "goloop"
		if on {
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) {
			withKernels(t, kernelPath{cpufeat.TransposeKernel, on}, func() { checkKernelAllocsWarm(t) })
		})
	}
}

func checkKernelAllocsWarm(t *testing.T) {
	const n = 130
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
	satRun := func(frames, shards int) func() {
		return func() { sinkSat, _ = sat.RunSharded(g, frames, DefaultEnergy(), shards) }
	}
	ccRun := func(frames, shards int) func() {
		cfg := ConvergecastConfig{Sink: 0, Rate: 0.05, Frames: frames, Seed: 7, Shards: shards}
		return func() { sinkCC, _ = cc.Run(cfg) }
	}

	measure := func(call func()) float64 {
		call() // warm the pools before measuring
		return testing.AllocsPerRun(20, call)
	}

	// Measured: 4 per saturation run and 10 per two-frame convergecast
	// run; a sharded run adds 6 at two shards and 9 at three.
	const satBudget, ccBudget, shardRunAllocs = 8.0, 14.0, 12.0

	satSeq := measure(satRun(2, 1))
	if satSeq > satBudget {
		t.Errorf("Saturation: %v allocs per warm run, budget %v", satSeq, satBudget)
	}
	if satLong := measure(satRun(8, 1)); satLong != satSeq {
		t.Errorf("Saturation: %v allocs at 8 frames vs %v at 2; the warm path must not allocate per frame", satLong, satSeq)
	}
	if ccSeq := measure(ccRun(2, 1)); ccSeq > ccBudget {
		t.Errorf("Convergecast: %v allocs per warm run, budget %v", ccSeq, ccBudget)
	}

	for _, k := range []struct {
		name string
		run  func(frames, shards int) func()
	}{{"Saturation", satRun}, {"Convergecast", ccRun}} {
		for _, shards := range []int{2, 3} {
			var extra [2]float64
			for i, frames := range []int{2, 8} {
				seq := measure(k.run(frames, 1))
				extra[i] = measure(k.run(frames, shards)) - seq
				if extra[i] < 0 || extra[i] > shardRunAllocs {
					t.Errorf("%s shards=%d frames=%d: %v allocs beyond the sequential %v, want at most %v per run",
						k.name, shards, frames, extra[i], seq, shardRunAllocs)
				}
			}
			if extra[1] != extra[0] {
				t.Errorf("%s shards=%d: fan-out costs %v allocs at 8 frames vs %v at 2; it must be paid once per run",
					k.name, shards, extra[1], extra[0])
			}
		}
	}

	if sinkSat == nil || sinkCC == nil {
		t.Fatal("measured runs returned no results")
	}
}

// TestSaturationKernelMemory pins what a campaign saturation job costs the
// simulator in memory: on a fresh Construct output of the campaign's
// N(8300, 2), (250, 2000) class, building the kernel and one Run, after a
// warm-up run on another schedule of the same n, allocate less than one
// n·⌈L/64⌉-word per-node view of the schedule. The kernels read the slot
// sets 64 slots at a time and never ask a schedule for its node views, so
// neither the transposes nor the views they would leave behind appear.
func TestSaturationKernelMemory(t *testing.T) {
	for _, file := range []string{"fastpath.go", "fastcc.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{".Tran(", ".Recv("} {
			if strings.Contains(string(src), call) {
				t.Errorf("%s calls %s: the kernels must read slot sets, not node views", file, call)
			}
		}
	}
	if testing.Short() {
		t.Skip("builds campaign-sized schedules")
	}
	const n, d = 8300, 2
	base := polySchedule(t, n, d)
	g := topology.Regularish(n, d)
	warm, err := core.Construct(base, core.ConstructOptions{AlphaT: 400, AlphaR: 2500, D: d})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Construct(base, core.ConstructOptions{AlphaT: 250, AlphaR: 2000, D: d})
	if err != nil {
		t.Fatal(err)
	}
	// No collection from the warm-up on, so the pooled scratch it leaves
	// is not dropped before the measured run. (Even a run that finds the
	// pool empty, on another P, allocates under one view: about 1 MB of
	// scratch and result at this size.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	wk, err := NewSaturationKernel(warm, n)
	if err != nil {
		t.Fatal(err)
	}
	if sinkSat, err = wk.Run(g, 2, DefaultEnergy()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k, err := NewSaturationKernel(fresh, n)
	if err != nil {
		t.Fatal(err)
	}
	if sinkSat, err = k.Run(g, 2, DefaultEnergy()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	view := uint64(n*((fresh.L()+63)/64)) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= view {
		t.Errorf("kernel build + warm Run allocated %d bytes, want < %d (one n·⌈L/64⌉-word view at L = %d)", got, view, fresh.L())
	} else {
		t.Logf("kernel build + warm Run allocated %d bytes; one view is %d", got, view)
	}
}
