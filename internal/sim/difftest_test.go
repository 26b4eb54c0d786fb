package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file pins the struct-of-arrays fast paths byte-identical to the
// reference loops of oracle_test.go: every field of every result struct — including
// the float-valued rates, energies, and latency summaries — must satisfy
// reflect.DeepEqual, not a tolerance. The identity holds because both
// paths derive all floats through the shared integer-census finalizers
// (finishSaturation, finishConvergecast) and consume the arrival RNG in
// the same order; a tolerance here would hide a broken pinning contract.

// kernelPath is one setting of the two assembly kernels under the
// simulator: bitset's transpose kernel, through which both simulator
// kernels read their slot windows, and the saturation resolve kernel.
type kernelPath struct{ transpose, resolve bool }

// kernelPaths lists the kernel settings this host runs: both off, then
// each kernel the CPU has on its own, then both on. The transpose kernel
// needs AVX-512F, AVX-512VBMI and GFNI, the resolve kernel AVX-512F, DQ,
// CD, VL and VPOPCNTDQ.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{}}
	if cpufeat.TransposeKernel {
		paths = append(paths, kernelPath{transpose: true})
	}
	if cpufeat.ResolveKernel {
		paths = append(paths, kernelPath{resolve: true})
	}
	if cpufeat.TransposeKernel && cpufeat.ResolveKernel {
		paths = append(paths, kernelPath{true, true})
	}
	return paths
}

// resolvePaths lists the resolve paths this host runs: the Go loop, and
// the kernel where the CPU has it.
func resolvePaths() []bool {
	if cpufeat.ResolveKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

// withKernels runs f with the kernels switched as p says, then restores
// both switches; a failure in f is logged with the path it ran on.
func withKernels(t *testing.T, p kernelPath, f func()) {
	defer func(transpose, resolve bool) {
		cpufeat.TransposeKernel, cpufeat.ResolveKernel = transpose, resolve
		if t.Failed() {
			t.Logf("transpose kernel on: %v, resolve kernel on: %v", p.transpose, p.resolve)
		}
	}(cpufeat.TransposeKernel, cpufeat.ResolveKernel)
	cpufeat.TransposeKernel, cpufeat.ResolveKernel = p.transpose, p.resolve
	f()
}

// dutySchedule builds an (alphaT, alphaR) duty-cycled schedule via the
// Figure 2 construction from the polynomial cover-free family.
func dutySchedule(t *testing.T, n, d, alphaT, alphaR int) *core.Schedule {
	t.Helper()
	ns := polySchedule(t, n, d)
	s, err := core.Construct(ns, core.ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diffTopologies returns the topology matrix for a given node count.
func diffTopologies(t *testing.T, n int) map[string]*topology.Graph {
	t.Helper()
	rng := stats.NewRNG(77)
	rows := 2
	return map[string]*topology.Graph{
		"ring":    topology.Ring(n),
		"line":    topology.Line(n),
		"star":    topology.Star(n),
		"grid":    topology.Grid(rows, (n+rows-1)/rows),
		"regular": topology.Regularish(n, 4),
		"random":  topology.RandomBoundedDegree(n, 4, n/2, rng),
	}
}

func assertSaturationIdentical(t *testing.T, g *topology.Graph, s *core.Schedule, frames int, em EnergyModel) {
	t.Helper()
	fast, errFast := RunSaturation(g, s, frames, em)
	legacy, errLegacy := runSaturationReference(g, s, frames, em)
	if (errFast == nil) != (errLegacy == nil) {
		t.Fatalf("error disagreement: fast=%v legacy=%v", errFast, errLegacy)
	}
	if errFast != nil {
		if errFast.Error() != errLegacy.Error() {
			t.Fatalf("error text disagreement: fast=%q legacy=%q", errFast, errLegacy)
		}
		return
	}
	if !reflect.DeepEqual(fast, legacy) {
		t.Fatalf("saturation fast path diverged from legacy:\nfast:   %+v\nlegacy: %+v", fast, legacy)
	}
	// Shard counts and the CSR representation must change nothing. At small
	// n the word-aligned ranges collapse to one shard (the clamp is itself
	// worth covering); TestShardedKernelsWordRanges exercises real
	// multi-shard splits.
	for _, shards := range []int{0, 2, 3, -1} {
		sharded, err := RunSaturationSharded(g, s, frames, em, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(sharded, fast) {
			t.Fatalf("shards=%d diverged from sequential:\nsharded: %+v\nseq:     %+v", shards, sharded, fast)
		}
	}
	cg := g.Compress()
	for _, shards := range []int{1, 2} {
		cfast, err := RunSaturationSharded(cg, s, frames, em, shards)
		if err != nil {
			t.Fatalf("csr shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(cfast, fast) {
			t.Fatalf("csr shards=%d diverged from dense:\ncsr:   %+v\ndense: %+v", shards, cfast, fast)
		}
	}
}

func assertConvergecastIdentical(t *testing.T, g *topology.Graph, s *core.Schedule, cfg ConvergecastConfig) {
	t.Helper()
	fast, errFast := RunConvergecast(g, s, cfg)
	legacy, errLegacy := runConvergecastReference(g, s, cfg)
	if (errFast == nil) != (errLegacy == nil) {
		t.Fatalf("error disagreement: fast=%v legacy=%v", errFast, errLegacy)
	}
	if errFast != nil {
		if errFast.Error() != errLegacy.Error() {
			t.Fatalf("error text disagreement: fast=%q legacy=%q", errFast, errLegacy)
		}
		return
	}
	if !reflect.DeepEqual(fast, legacy) {
		t.Fatalf("convergecast fast path diverged from legacy:\nfast:   %+v\nlegacy: %+v", fast, legacy)
	}
	// Sweep shard counts and the CSR representation against the sequential
	// fast result — cfg.Shards must be invisible in the output.
	cg := g.Compress()
	for _, shards := range []int{2, -1} {
		cfg.Shards = shards
		sharded, err := RunConvergecast(g, s, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(sharded, fast) {
			t.Fatalf("shards=%d diverged from sequential:\nsharded: %+v\nseq:     %+v", shards, sharded, fast)
		}
		csr, err := RunConvergecast(cg, s, cfg)
		if err != nil {
			t.Fatalf("csr shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(csr, fast) {
			t.Fatalf("csr shards=%d diverged from dense:\ncsr:   %+v\ndense: %+v", shards, csr, fast)
		}
	}
}

// TestSaturationDifferentialMatrix sweeps workload × topology class ×
// schedule construction (including duty points) × frame count, asserting
// field-for-field identity — MaxInterDeliveryGap and CollisionSlots
// included — between the kernel fast path and the legacy loop.
func TestSaturationDifferentialMatrix(t *testing.T) {
	const n = 12
	schedules := map[string]*core.Schedule{
		"tdma":     tdmaSchedule(t, n),
		"poly-d2":  polySchedule(t, n, 2),
		"duty-2-3": dutySchedule(t, n, 2, 2, 3),
		"duty-3-5": dutySchedule(t, n, 3, 3, 5),
	}
	for sname, s := range schedules {
		for gname, g := range diffTopologies(t, n) {
			for _, frames := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/frames=%d", sname, gname, frames), func(t *testing.T) {
					assertSaturationIdentical(t, g, s, frames, DefaultEnergy())
				})
			}
		}
	}
}

// roundRobinSchedule is the non-sleeping frame of l slots in which slot i's
// only transmitter is node i mod n.
func roundRobinSchedule(t *testing.T, n, l int) *core.Schedule {
	t.Helper()
	tx := make([][]int, l)
	for i := range tx {
		tx[i] = []int{i % n}
	}
	s, err := core.NonSleeping(n, tx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSaturationDifferentialWindowEdges holds the kernel, which reads a
// frame 64 slots at a time, to the reference loop at frame lengths on and
// around a window edge. On 12-node graphs a round-robin frame gives every
// link a delivery every 12 slots, so in-frame gaps span the edges at slots
// 64 and 128 and the wrap gap follows L mod 12; a random frame adds
// collisions and uneven gaps. TDMA at n = 130 gives each link one delivery
// per frame, so its wrap gap spans every window. A Construct output of
// 147 slots runs on 100-node graphs, fewer nodes than its universe.
// Every case runs with bitset's transpose kernel and the resolve kernel
// off and, where the CPU has them, on (kernelPaths).
func TestSaturationDifferentialWindowEdges(t *testing.T) {
	type schedCase struct {
		s *core.Schedule
		n int // graph size
	}
	const n = 12
	cases := map[string]schedCase{
		"tdma-L130":       {tdmaSchedule(t, 130), 130},
		"duty-20-40-L147": {dutySchedule(t, 130, 3, 20, 40), 100},
	}
	for _, l := range []int{63, 64, 65, 129, 130} {
		random, err := fuzzSchedule(n, l, []byte{0x1b, 0x6c, 0x9e, 0x27, 0x55, 0xa3, 0x0f})
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("roundrobin-L%d", l)] = schedCase{roundRobinSchedule(t, n, l), n}
		cases[fmt.Sprintf("random-L%d", l)] = schedCase{random, n}
	}
	if l := cases["duty-20-40-L147"].s.L(); l != 147 {
		t.Fatalf("Construct output has L = %d, want 147", l)
	}
	for sname, c := range cases {
		for gname, g := range diffTopologies(t, c.n) {
			for _, frames := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/frames=%d", sname, gname, frames), func(t *testing.T) {
					for _, p := range kernelPaths() {
						withKernels(t, p, func() { assertSaturationIdentical(t, g, c.s, frames, DefaultEnergy()) })
					}
				})
			}
		}
	}
}

// TestConvergecastDifferentialMatrix sweeps the traffic knobs — rate, queue
// bound, warmup, phase cycling, seed — across topology classes and duty
// points, asserting the fast path matches the reference loop bit for bit.
func TestConvergecastDifferentialMatrix(t *testing.T) {
	const n = 12
	schedules := map[string]*core.Schedule{
		"tdma":     tdmaSchedule(t, n),
		"poly-d2":  polySchedule(t, n, 2),
		"duty-2-3": dutySchedule(t, n, 2, 2, 3),
	}
	configs := map[string]ConvergecastConfig{
		"base":    {Sink: 0, Rate: 0.3, Frames: 4, Seed: 1},
		"seed2":   {Sink: 0, Rate: 0.3, Frames: 4, Seed: 2},
		"sink3":   {Sink: 3, Rate: 0.5, Frames: 3, Seed: 5},
		"queue1":  {Sink: 0, Rate: 0.9, Frames: 4, MaxQueue: 1, Seed: 3},
		"warmup":  {Sink: 0, Rate: 0.4, Frames: 3, WarmupFrames: 2, Seed: 4},
		"hotrate": {Sink: 0, Rate: 2.0, Frames: 3, MaxQueue: 2, Seed: 6},
		"phases": {Sink: 0, Frames: 5, Seed: 7,
			Phases: []TrafficPhase{{Slots: 3, Rate: 1.5}, {Slots: 2, Rate: 0}, {Slots: 4, Rate: 0.2}}},
	}
	for sname, s := range schedules {
		for gname, g := range diffTopologies(t, n) {
			for cname, cfg := range configs {
				t.Run(fmt.Sprintf("%s/%s/%s", sname, gname, cname), func(t *testing.T) {
					assertConvergecastIdentical(t, g, s, cfg)
				})
			}
		}
	}
}

// TestSaturationKernelReuse shares one kernel across topologies of the same
// node count — the campaign usage pattern — and checks each run still
// matches the legacy loop, i.e. no per-run state leaks through the kernel
// or the pooled scratch.
func TestSaturationKernelReuse(t *testing.T) {
	const n = 10
	s := polySchedule(t, n, 2)
	k, err := NewSaturationKernel(s, n)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*topology.Graph{
		topology.Ring(n),
		topology.Star(n),
		topology.Regularish(n, 4),
		topology.Ring(n), // repeat: pooled scratch must be fully reset
	}
	for i, g := range graphs {
		fast, err := k.Run(g, 2, DefaultEnergy())
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := runSaturationReference(g, s, 2, DefaultEnergy())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, legacy) {
			t.Fatalf("run %d: shared kernel diverged from legacy:\nfast:   %+v\nlegacy: %+v", i, fast, legacy)
		}
	}
	if k.N() != n {
		t.Fatalf("kernel N = %d, want %d", k.N(), n)
	}
}

// TestSaturationKernelErrors pins the kernel's validation to the legacy
// loop's error surface.
func TestSaturationKernelErrors(t *testing.T) {
	s := tdmaSchedule(t, 4)
	if _, err := NewSaturationKernel(s, 0); err == nil {
		t.Fatal("want error for n = 0")
	}
	if _, err := NewSaturationKernel(s, 5); err == nil {
		t.Fatal("want error for n > schedule universe")
	}
	k, err := NewSaturationKernel(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(topology.Ring(4), 1, DefaultEnergy()); err == nil {
		t.Fatal("want error for mismatched graph size")
	}
	if _, err := k.Run(topology.Ring(3), 0, DefaultEnergy()); err == nil {
		t.Fatal("want error for frames = 0")
	}
	// The wrapper must agree with the legacy loop on bad inputs too.
	assertSaturationIdentical(t, topology.Ring(5), s, 1, DefaultEnergy())
	assertSaturationIdentical(t, topology.Ring(3), s, 0, DefaultEnergy())
}

// TestShardedKernelsWordRanges runs the kernels at n = 130 — three scratch
// words, so resolveShards keeps real multi-shard splits and the worker
// goroutines actually run — and requires shards ∈ {2, 3, per-CPU} to
// reproduce the shards=1 result bit for bit, on both representations.
// `make race-sim-par` runs this under the race detector, which would flag
// any overlap in the word ranges the workers write.
func TestShardedKernelsWordRanges(t *testing.T) {
	const n = 130
	s := polySchedule(t, n, 3)
	graphs := map[string]*topology.Graph{
		"ring":    topology.Ring(n),
		"grid":    topology.Grid(10, 13),
		"regular": topology.Regularish(n, 4),
	}
	ccCfg := ConvergecastConfig{Sink: 0, Rate: 0.4, Frames: 3, WarmupFrames: 1, Seed: 11}
	for gname, g := range graphs {
		for repr, gg := range map[string]*topology.Graph{"dense": g, "csr": g.Compress()} {
			t.Run(gname+"/"+repr, func(t *testing.T) {
				satSeq, err := RunSaturationSharded(gg, s, 2, DefaultEnergy(), 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg := ccCfg
				cfg.Shards = 1
				ccSeq, err := RunConvergecast(gg, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, -1} {
					satPar, err := RunSaturationSharded(gg, s, 2, DefaultEnergy(), shards)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if !reflect.DeepEqual(satPar, satSeq) {
						t.Fatalf("saturation shards=%d diverged from shards=1", shards)
					}
					cfg.Shards = shards
					ccPar, err := RunConvergecast(gg, s, cfg)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if !reflect.DeepEqual(ccPar, ccSeq) {
						t.Fatalf("convergecast shards=%d diverged from shards=1", shards)
					}
				}
			})
		}
	}
}

// TestShardedKernelsAcrossWindows is TestShardedKernelsWordRanges at frame
// lengths beyond one 64-slot window: a Construct output of L = 147 (two
// full windows and a short one) and TDMA at L = 130, on three 64-node
// receiver words. Every shard resolves every window after the calling
// goroutine transposes it, so `make race-sim-par` runs this under the race
// detector to show the per-window barrier orders the transposes before the
// shards' reads and the shards' writes before the next window. Saturation
// runs once per resolve path, and the paths must agree: the kernel's
// shards call its leaves on their own 64-aligned receiver ranges.
func TestShardedKernelsAcrossWindows(t *testing.T) {
	const n = 130
	schedules := map[string]*core.Schedule{
		"duty-20-40": dutySchedule(t, n, 3, 20, 40),
		"tdma":       tdmaSchedule(t, n),
	}
	graphs := map[string]*topology.Graph{
		"ring":    topology.Ring(n),
		"regular": topology.Regularish(n, 4),
	}
	ccCfg := ConvergecastConfig{Sink: 5, Rate: 0.3, Frames: 2, Seed: 13}
	for sname, s := range schedules {
		for gname, g := range graphs {
			for repr, gg := range map[string]*topology.Graph{"dense": g, "csr": g.Compress()} {
				t.Run(sname+"/"+gname+"/"+repr, func(t *testing.T) {
					var first *SaturationResult
					for _, on := range resolvePaths() {
						withKernels(t, kernelPath{cpufeat.TransposeKernel, on}, func() {
							satSeq, err := RunSaturationSharded(gg, s, 3, DefaultEnergy(), 1)
							if err != nil {
								t.Fatal(err)
							}
							if first == nil {
								first = satSeq
							} else if !reflect.DeepEqual(satSeq, first) {
								t.Fatal("saturation diverged between the resolve paths")
							}
							for _, shards := range []int{2, 3, -1} {
								satPar, err := RunSaturationSharded(gg, s, 3, DefaultEnergy(), shards)
								if err != nil {
									t.Fatalf("shards=%d: %v", shards, err)
								}
								if !reflect.DeepEqual(satPar, satSeq) {
									t.Fatalf("saturation shards=%d diverged from shards=1", shards)
								}
							}
						})
					}
					cfg := ccCfg
					cfg.Shards = 1
					ccSeq, err := RunConvergecast(gg, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, shards := range []int{2, 3, -1} {
						cfg.Shards = shards
						ccPar, err := RunConvergecast(gg, s, cfg)
						if err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						if !reflect.DeepEqual(ccPar, ccSeq) {
							t.Fatalf("convergecast shards=%d diverged from shards=1", shards)
						}
					}
				})
			}
		}
	}
}

// fuzzSchedule decodes 2 bits per (node, slot) into a schedule: 1 →
// transmit, 2 → receive, 0/3 → sleep. Disjointness is structural, so
// FromSets always accepts.
func fuzzSchedule(n, l int, bits []byte) (*core.Schedule, error) {
	ts := make([]*bitset.Set, l)
	rs := make([]*bitset.Set, l)
	for i := 0; i < l; i++ {
		ts[i] = bitset.New(n)
		rs[i] = bitset.New(n)
	}
	for v := 0; v < n; v++ {
		for i := 0; i < l; i++ {
			idx := v*l + i
			var b byte
			if len(bits) > 0 {
				b = bits[(idx/4)%len(bits)] >> uint((idx%4)*2) & 3
			}
			switch b {
			case 1:
				ts[i].Add(v)
			case 2:
				rs[i].Add(v)
			}
		}
	}
	return core.FromSets(n, ts, rs)
}

// fuzzGraph builds a connected graph: a spanning line plus extra edges
// drawn from the seed.
func fuzzGraph(n, extra int, seed uint64) *topology.Graph {
	g := topology.NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	rng := stats.NewRNG(seed)
	for e := 0; e < extra; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// FuzzSimEquivalence feeds random small (topology, schedule, traffic)
// triples to both simulator paths and requires byte-identical results,
// with bitset's transpose kernel and the resolve kernel off and, where
// the CPU has them, on (kernelPaths; the resolve kernel is saturation's
// alone, so convergecast runs the transpose paths).
func FuzzSimEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 2, 11, 3, 0x1b, 0x6c, 0x9e, 0x27})
	f.Add([]byte{9, 5, 200, 9, 0xff, 0x00, 0x55, 0xaa, 0x12})
	f.Add([]byte{3, 1, 42, 250, 0x99, 0x42})
	f.Add([]byte{7, 3, 77, 128, 0x24, 0x8d, 0xe1, 0x5a, 0x36, 0x6d})
	f.Add([]byte{8, 4, 31, 65, 0x6d, 0xb6, 0x49, 0x92, 0x24, 0xdb})  // parallel-kernel seed: Shards = 2
	f.Add([]byte{9, 0x83, 6, 6, 0x6d, 0xb6, 0x49, 0x92, 0x24, 0xdb}) // low-rate seed: data[1] >= 0x80
	f.Add([]byte{0x89, 4, 7, 5, 0x6d, 0xb6, 0x49, 0x92, 0x24, 0xdb}) // two-window seed: data[0] >= 0x80
	paths := kernelPaths()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 3 + int(data[0])%10 // 3..12
		l := 1 + int(data[1])%6  // 1..6
		if data[0] >= 0x80 {
			// 65..70: the kernels read the frame in two 64-slot windows.
			l += wordBits
		}
		seed := uint64(data[2])
		extra := int(data[3]) % 8
		s, err := fuzzSchedule(n, l, data[4:])
		if err != nil {
			t.Fatalf("fuzzSchedule: %v", err)
		}
		g := fuzzGraph(n, extra, seed)
		frames := 1 + int(data[2])%3
		for _, p := range paths {
			withKernels(t, p, func() { assertSaturationIdentical(t, g, s, frames, DefaultEnergy()) })
		}
		rate := 0.2 + float64(data[0]%4)*0.4
		if data[1] >= 0x80 {
			// A campaign-like rate, at which the arrival scan skips whole
			// runs of draws between arrivals.
			rate = 0.02
		}
		cfg := ConvergecastConfig{
			Sink:         int(data[3]) % n,
			Rate:         rate,
			Frames:       2,
			MaxQueue:     int(data[1]) % 3, // 0 means the 64 default
			WarmupFrames: int(data[2]) % 2,
			Seed:         seed,
			Shards:       int(data[0]) % 3, // the asserts re-sweep shard counts anyway
		}
		for _, p := range paths {
			if !p.resolve {
				withKernels(t, p, func() { assertConvergecastIdentical(t, g, s, cfg) })
			}
		}
	})
}

// TestConvergecastDifferentialCampaignRates holds the fast path to the
// reference loop at the campaign's arrival rates, where the arrival scan
// skips long runs of draws: the campaign default 0.002 on the campaign's
// 20×20 grid and duty point, 0.05, and a phase cycle whose rate drops to 0
// and comes back. The sinks leave an empty [0, sink) span, an interior
// split, and an empty (sink, n) span; the 399-, 211- and 188-node spans
// cover lengths on and off a multiple of four.
func TestConvergecastDifferentialCampaignRates(t *testing.T) {
	const n = 400
	s := dutySchedule(t, n, 4, 20, 120)
	g := topology.Grid(20, 20)
	phases := []TrafficPhase{{Slots: 7, Rate: 0.05}, {Slots: 5, Rate: 0}, {Slots: 3, Rate: 0.05}, {Slots: 9, Rate: 0.002}}
	configs := map[string]ConvergecastConfig{
		"rate0.002": {Rate: 0.002, Frames: 3, Seed: 21},
		"rate0.05":  {Rate: 0.05, Frames: 2, Seed: 22},
		"phases":    {Frames: 2, Seed: 23, Phases: phases},
	}
	for _, sink := range []int{0, 211, n - 1} {
		for cname, cfg := range configs {
			cfg.Sink = sink
			t.Run(fmt.Sprintf("sink%d/%s", sink, cname), func(t *testing.T) {
				assertConvergecastIdentical(t, g, s, cfg)
			})
		}
	}
}
