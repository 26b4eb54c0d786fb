package engine

import (
	"context"
	"fmt"
	"sync"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Metrics is the JSON payload of one campaign job's record. One flat
// struct for every workload keeps journal lines and CSV columns stable;
// workloads leave the fields they don't produce at their zero values.
type Metrics struct {
	// Schedule shape (every workload).
	L              int     `json:"l"`
	ActiveFraction float64 `json:"activeFraction"`
	// Analysis workload: the exact Theorem-2 average throughput and its
	// display float.
	AvgThroughput      string  `json:"avgThroughput,omitempty"`
	AvgThroughputFloat float64 `json:"avgThroughputFloat,omitempty"`
	// Topology shape (simulation workloads).
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`
	// Saturation workload.
	MinLinkThroughput float64 `json:"minLinkThroughput,omitempty"`
	AvgLinkThroughput float64 `json:"avgLinkThroughput,omitempty"`
	// Convergecast workload.
	Generated        int     `json:"generated,omitempty"`
	Delivered        int     `json:"delivered,omitempty"`
	Dropped          int     `json:"dropped,omitempty"`
	DeliveryRatio    float64 `json:"deliveryRatio,omitempty"`
	MeanLatencySlots float64 `json:"meanLatencySlots,omitempty"`
	// Flood workload.
	Covered        int `json:"covered,omitempty"`
	CompletionSlot int `json:"completionSlot,omitempty"`
	// Shared simulation counters.
	Collisions        int     `json:"collisions,omitempty"`
	TotalEnergy       float64 `json:"totalEnergy,omitempty"`
	SimActiveFraction float64 `json:"simActiveFraction,omitempty"`
}

// metricsPool recycles Metrics between jobs: the engine serializes a job's
// result into its journal record and then calls Release, so under a worker
// pool each worker effectively reuses one Metrics for its whole job stream
// instead of leaving one garbage struct per job.
var metricsPool = sync.Pool{New: func() any { return new(Metrics) }}

// Release returns m to the job-result pool. The engine calls it after the
// record payload is serialized; callers holding a Metrics from a direct
// ExecuteJob call simply never release it.
func (m *Metrics) Release() {
	*m = Metrics{}
	metricsPool.Put(m)
}

// schedKey identifies the schedule a job needs. Jobs of one campaign that
// agree on the key share one built schedule: schedules are immutable, pure
// functions of these fields, and construction dominates small jobs. A key
// with zero caps and no strategy names a class's base schedule.
type schedKey struct {
	construction   string
	n, d           int
	alphaT, alphaR int
	strategy       string
}

// schedMemo shares schedule builds across the jobs of one campaign with
// singleflight semantics: replications and topologies of the same grid
// point pay for construction once, and the duty points of a class share
// its base, including for the constructions (tdma, steiner, projective)
// the cross-campaign polynomial cache cannot serve. Unlike
// schedcache.Cache it is unbounded, which is safe because a campaign's
// distinct grid points are fixed at expansion time.
type schedMemo struct {
	mu sync.Mutex
	m  map[schedKey]*schedEntry
}

type schedEntry struct {
	once sync.Once
	s    *ttdc.Schedule
	err  error
}

// get returns the schedule memoized under k, building it on first use. A
// nil memo builds every time.
func (sm *schedMemo) get(k schedKey, build func() (*ttdc.Schedule, error)) (*ttdc.Schedule, error) {
	if sm == nil {
		return build()
	}
	sm.mu.Lock()
	e, ok := sm.m[k]
	if !ok {
		e = &schedEntry{}
		sm.m[k] = e
	}
	sm.mu.Unlock()
	e.once.Do(func() { e.s, e.err = build() })
	return e.s, e.err
}

// kernelKey identifies a saturation fast-path kernel: the schedule (by
// pointer — campaign schedules are deduplicated through schedMemo, so one
// pointer per grid point) and the topology's node count, which can differ
// from the spec's N (grid topologies round up to a full square).
type kernelKey struct {
	s *ttdc.Schedule
	n int
}

// kernelMemo shares saturation kernels across the jobs of one campaign
// with singleflight semantics: the replications and topologies of a grid
// point pay the kernel precomputation once, then shard their runs across
// the worker pool against the shared immutable kernel.
type kernelMemo struct {
	mu sync.Mutex
	m  map[kernelKey]*kernelEntry
}

type kernelEntry struct {
	once sync.Once
	k    *ttdc.SaturationKernel
	err  error
}

func (km *kernelMemo) get(key kernelKey) (*ttdc.SaturationKernel, error) {
	km.mu.Lock()
	e, ok := km.m[key]
	if !ok {
		e = &kernelEntry{}
		km.m[key] = e
	}
	km.mu.Unlock()
	e.once.Do(func() { e.k, e.err = ttdc.NewSaturationKernel(key.s, key.n) })
	return e.k, e.err
}

// graphKey identifies a deterministic topology build. Only the
// seed-independent models (regular, ring, grid) are memoized; geometric
// and random graphs differ per replication and stay per-job.
type graphKey struct {
	topology string
	n, d     int
}

// graphMemo shares deterministic topology builds across the jobs of one
// campaign with singleflight semantics. At the million-node end a single
// CSR build is seconds of work and tens of megabytes; replications and
// duty points of one grid point must not repeat it.
type graphMemo struct {
	mu sync.Mutex
	m  map[graphKey]*graphEntry
}

type graphEntry struct {
	once sync.Once
	g    *ttdc.Graph
	err  error
}

func (gm *graphMemo) get(k graphKey, build func() (*ttdc.Graph, error)) (*ttdc.Graph, error) {
	gm.mu.Lock()
	e, ok := gm.m[k]
	if !ok {
		e = &graphEntry{}
		gm.m[k] = e
	}
	gm.mu.Unlock()
	e.once.Do(func() { e.g, e.err = build() })
	return e.g, e.err
}

// ccKernelKey identifies a convergecast fast-path kernel: schedule and
// graph by pointer (both deduplicated through their campaign memos) plus
// the sink. Jobs whose graph is per-job (geometric, random) never reach
// the memo, so entries cannot leak one-shot graphs.
type ccKernelKey struct {
	s    *ttdc.Schedule
	g    *ttdc.Graph
	sink int
}

// ccKernelMemo shares convergecast kernels across a campaign's
// replications with singleflight semantics.
type ccKernelMemo struct {
	mu sync.Mutex
	m  map[ccKernelKey]*ccKernelEntry
}

type ccKernelEntry struct {
	once sync.Once
	k    *ttdc.ConvergecastKernel
	err  error
}

func (km *ccKernelMemo) get(key ccKernelKey) (*ttdc.ConvergecastKernel, error) {
	km.mu.Lock()
	e, ok := km.m[key]
	if !ok {
		e = &ccKernelEntry{}
		km.m[key] = e
	}
	km.mu.Unlock()
	e.once.Do(func() { e.k, e.err = ttdc.NewConvergecastKernel(key.g, key.s, key.sink) })
	return e.k, e.err
}

// Jobs expands the campaign and binds each spec to an executable engine
// Job. Job i's seed is stats.DeriveSeed(c.Seed, i), so a job's result
// depends only on the campaign seed and its own index — never on worker
// count or completion order. cache, when non-nil, additionally memoizes
// polynomial schedule construction across campaigns; within the campaign
// every construction is shared through a per-campaign memo regardless.
func Jobs(c *Campaign, cache *schedcache.Cache) ([]Job, error) {
	specs, err := c.Expand()
	if err != nil {
		return nil, err
	}
	seed := c.Seed
	memo := &schedMemo{m: make(map[schedKey]*schedEntry)}
	kernels := &kernelMemo{m: make(map[kernelKey]*kernelEntry)}
	graphs := &graphMemo{m: make(map[graphKey]*graphEntry)}
	ccKernels := &ccKernelMemo{m: make(map[ccKernelKey]*ccKernelEntry)}
	jobs := make([]Job, len(specs))
	for i, spec := range specs {
		spec := spec
		jobSeed := stats.DeriveSeed(seed, uint64(i))
		jobs[i] = Job{
			ID:   spec.ID(),
			Seed: jobSeed,
			Run: func(ctx context.Context) (any, error) {
				return executeJob(ctx, spec, jobSeed, cache, memo, kernels, graphs, ccKernels)
			},
		}
	}
	return jobs, nil
}

// ExecuteJob runs one grid point: build (or fetch) the schedule, build the
// topology from the job seed, run the workload, and collect metrics.
func ExecuteJob(ctx context.Context, spec JobSpec, seed uint64, cache *schedcache.Cache) (*Metrics, error) {
	return executeJob(ctx, spec, seed, cache, nil, nil, nil, nil)
}

func executeJob(ctx context.Context, spec JobSpec, seed uint64, cache *schedcache.Cache,
	memo *schedMemo, kernels *kernelMemo, graphs *graphMemo, ccKernels *ccKernelMemo) (*Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := buildSchedule(spec, cache, memo)
	if err != nil {
		return nil, err
	}
	m := metricsPool.Get().(*Metrics)
	m.L = s.L()
	m.ActiveFraction = s.ActiveFraction()
	if spec.Workload == "analysis" {
		avg := ttdc.AvgThroughput(s, spec.D)
		m.AvgThroughput = avg.RatString()
		m.AvgThroughputFloat = ttdc.RatFloat(avg)
		return m, nil
	}
	g, err := buildTopology(spec, seed, graphs)
	if err != nil {
		m.Release()
		return nil, err
	}
	m.Nodes = g.N()
	m.Edges = g.EdgeCount()
	switch spec.Workload {
	case "saturation":
		var res *ttdc.SaturationResult
		if kernels != nil {
			// Campaign path: share one kernel per (schedule, node count)
			// across the worker pool and shard the topologies over it.
			k, kerr := kernels.get(kernelKey{s: s, n: g.N()})
			if kerr != nil {
				m.Release()
				return nil, kerr
			}
			res, err = k.RunSharded(g, spec.Frames, ttdc.DefaultEnergy(), spec.Shards)
		} else {
			res, err = ttdc.RunSaturationSharded(g, s, spec.Frames, ttdc.DefaultEnergy(), spec.Shards)
		}
		if err != nil {
			m.Release()
			return nil, err
		}
		m.MinLinkThroughput = res.MinLinkThroughput
		m.AvgLinkThroughput = res.AvgLinkThroughput
		m.Collisions = res.CollisionSlots
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	case "convergecast":
		cfg := ttdc.ConvergecastConfig{
			Sink: spec.Sink, Rate: spec.Rate, Frames: spec.Frames, Seed: seed,
			Shards: spec.Shards,
		}
		var res *ttdc.ConvergecastResult
		if ccKernels != nil && deterministicTopology(spec.Topology) {
			// Campaign path: the graph came from the campaign memo, so the
			// (schedule, graph, sink) kernel is shared across replications.
			k, kerr := ccKernels.get(ccKernelKey{s: s, g: g, sink: spec.Sink})
			if kerr != nil {
				m.Release()
				return nil, kerr
			}
			res, err = k.Run(cfg)
		} else {
			res, err = ttdc.RunConvergecast(g, s, cfg)
		}
		if err != nil {
			m.Release()
			return nil, err
		}
		m.Generated = res.Generated
		m.Delivered = res.Delivered
		m.Dropped = res.Dropped
		m.DeliveryRatio = res.DeliveryRatio
		m.MeanLatencySlots = res.Latency.Mean()
		m.Collisions = res.Collisions
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	case "flood":
		res, err := ttdc.RunFlood(g, ttdc.ScheduleProtocol{S: s}, ttdc.FloodConfig{
			Source: spec.Sink, MaxFrames: spec.Frames, Seed: seed,
		})
		if err != nil {
			m.Release()
			return nil, err
		}
		m.Covered = res.Covered
		m.CompletionSlot = res.CompletionSlot
		m.Collisions = res.Collisions
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	default:
		m.Release()
		return nil, fmt.Errorf("engine: unknown workload %q", spec.Workload)
	}
	return m, nil
}

// buildSchedule constructs the job's schedule. memo, when non-nil, shares
// each build across the campaign's jobs: the base schedule of a
// (construction, n, D) class is memoized under its own key, so every duty
// point of the class runs Construct on one base. Polynomial jobs go
// through the cross-campaign cache instead when one is supplied, so its
// budget check still guards every construction. Both layers are
// singleflight under concurrency.
func buildSchedule(spec JobSpec, cache *schedcache.Cache, memo *schedMemo) (*ttdc.Schedule, error) {
	strategy, err := schedcache.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	baseKey := schedKey{construction: spec.Construction, n: spec.N, d: spec.D}
	key := baseKey
	if spec.AlphaT != 0 || spec.AlphaR != 0 {
		key.alphaT, key.alphaR, key.strategy = spec.AlphaT, spec.AlphaR, schedcache.StrategyName(strategy)
	}
	if spec.Construction == "polynomial" && cache != nil {
		// Get validates against the cache's own limits — serving bounds
		// for HTTP-fed caches, TrustedLimits for the local CLIs.
		ck := schedcache.Key{N: spec.N, D: spec.D, AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, Strategy: strategy}
		return memo.get(key, func() (*ttdc.Schedule, error) { return cache.Get(ck) })
	}
	base := func() (*ttdc.Schedule, error) {
		return memo.get(baseKey, func() (*ttdc.Schedule, error) { return buildBase(spec) })
	}
	if key == baseKey {
		return base()
	}
	return memo.get(key, func() (*ttdc.Schedule, error) {
		b, err := base()
		if err != nil {
			return nil, err
		}
		return ttdc.Construct(b, ttdc.ConstructOptions{
			AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, D: spec.D, Strategy: strategy,
		})
	})
}

// buildBase builds the class's topology-transparent non-sleeping schedule.
func buildBase(spec JobSpec) (*ttdc.Schedule, error) {
	switch spec.Construction {
	case "tdma":
		return ttdc.TDMA(spec.N)
	case "polynomial":
		return ttdc.PolynomialSchedule(spec.N, spec.D)
	case "steiner":
		return ttdc.SteinerSchedule(spec.N)
	case "projective":
		return ttdc.ProjectiveSchedule(spec.N, spec.D)
	default:
		return nil, fmt.Errorf("engine: unknown construction %q", spec.Construction)
	}
}

// deterministicTopology reports whether the model is seed-independent —
// the precondition for sharing its graphs (and downstream kernels) across
// a campaign's jobs.
func deterministicTopology(kind string) bool {
	return kind == "regular" || kind == "ring" || kind == "grid"
}

// buildTopology realizes the job's graph. The RNG is rooted at the job
// seed, so randomized topologies differ across replications but are
// identical across reruns of the same job. Deterministic models go through
// the campaign graph memo when one is supplied; the seeded models are
// rejected above the dense-representation limit, where their per-node
// bitsets would cost O(n²) bits.
func buildTopology(spec JobSpec, seed uint64, graphs *graphMemo) (*ttdc.Graph, error) {
	if graphs != nil && deterministicTopology(spec.Topology) {
		return graphs.get(graphKey{topology: spec.Topology, n: spec.N, d: spec.D},
			func() (*ttdc.Graph, error) { return buildTopologyDirect(spec, seed) })
	}
	return buildTopologyDirect(spec, seed)
}

func buildTopologyDirect(spec JobSpec, seed uint64) (*ttdc.Graph, error) {
	switch spec.Topology {
	case "regular":
		return ttdc.Regularish(spec.N, spec.D), nil
	case "ring":
		return ttdc.Ring(spec.N), nil
	case "grid":
		side := 1
		for side*side < spec.N {
			side++
		}
		return ttdc.Grid(side, side), nil
	}
	if spec.N > topology.DenseLimit {
		return nil, fmt.Errorf("engine: topology %q builds dense per-node bitsets; n = %d exceeds the dense limit %d (use regular, ring, or grid at this scale)",
			spec.Topology, spec.N, topology.DenseLimit)
	}
	rng := stats.NewRNG(seed)
	switch spec.Topology {
	case "geometric":
		dep := ttdc.RandomGeometric(spec.N, spec.Radius, rng)
		dep.Graph.EnforceMaxDegree(spec.D, rng)
		return dep.Graph, nil
	case "random":
		return ttdc.RandomBoundedDegree(spec.N, spec.D, spec.N/4, rng), nil
	default:
		return nil, fmt.Errorf("engine: unknown topology %q", spec.Topology)
	}
}
