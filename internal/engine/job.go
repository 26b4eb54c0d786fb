package engine

import (
	"context"
	"fmt"
	"sync"

	ttdc "repro"
	"repro/internal/cff"
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

// memo shares builds across the jobs of one campaign with singleflight
// semantics: the first get of a key builds, and every other get of it,
// concurrent or later, waits for and shares that result, error included.
// It is unbounded, which is safe because a campaign's distinct keys are
// fixed at expansion time. A nil memo builds every time.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func newMemo[K comparable, V any]() *memo[K, V] {
	return &memo[K, V]{m: make(map[K]*memoEntry[V])}
}

// get returns the value memoized under k, building it on first use.
func (mm *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	if mm == nil {
		return build()
	}
	mm.mu.Lock()
	e, ok := mm.m[k]
	if !ok {
		e = &memoEntry[V]{}
		mm.m[k] = e
	}
	mm.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
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

// graphKey identifies a deterministic topology build. Only the
// seed-independent models (regular, ring, grid) are memoized; geometric
// and random graphs differ per replication and stay per-job.
type graphKey struct {
	topology string
	n, d     int
}

// satKernelKey identifies a saturation kernel: the schedule (by pointer —
// campaign schedules are deduplicated through the schedule memo, so one
// pointer per grid point) and the topology's node count, which can differ
// from the spec's N (grid topologies round up to a full square).
type satKernelKey struct {
	s *ttdc.Schedule
	n int
}

// ccKernelKey identifies a convergecast kernel: schedule and graph by
// pointer (both deduplicated through their campaign memos) plus the sink.
type ccKernelKey struct {
	s    *ttdc.Schedule
	g    *ttdc.Graph
	sink int
}

// memos are the per-campaign build memos. Jobs hands one set to every job,
// so the replications, topologies and duty points of a grid point pay once
// for schedule construction (for every construction, not just the
// polynomial one the cross-campaign cache serves), for a deterministic
// topology (one CSR build is seconds and tens of megabytes at the
// million-node end), and for kernel precomputation; the immutable kernels
// are then run across the worker pool. ExecuteJob passes the zero value,
// so every build runs.
type memos struct {
	scheds     *memo[schedKey, *ttdc.Schedule]
	graphs     *memo[graphKey, *ttdc.Graph]
	satKernels *memo[satKernelKey, *ttdc.SaturationKernel]
	ccKernels  *memo[ccKernelKey, *ttdc.ConvergecastKernel]
}

// Jobs expands the campaign and binds each spec to an executable engine
// Job. Job i's seed is stats.DeriveSeed(c.Seed, i), so a job's result
// depends only on the campaign seed and its own index — never on worker
// count or completion order. cache, when non-nil, additionally memoizes
// polynomial schedule construction across campaigns, and its limits bound
// every construction; within the campaign every construction is shared
// through a per-campaign memo regardless.
func Jobs(c *Campaign, cache *schedcache.Cache[*ttdc.Schedule]) ([]Job, error) {
	specs, err := c.Expand()
	if err != nil {
		return nil, err
	}
	seed := c.Seed
	ms := memos{
		scheds:     newMemo[schedKey, *ttdc.Schedule](),
		graphs:     newMemo[graphKey, *ttdc.Graph](),
		satKernels: newMemo[satKernelKey, *ttdc.SaturationKernel](),
		ccKernels:  newMemo[ccKernelKey, *ttdc.ConvergecastKernel](),
	}
	jobs := make([]Job, len(specs))
	for i, spec := range specs {
		spec := spec
		jobSeed := stats.DeriveSeed(seed, uint64(i))
		jobs[i] = Job{
			ID:   spec.ID(),
			Seed: jobSeed,
			Run: func(ctx context.Context) (any, error) {
				return executeJob(ctx, spec, jobSeed, cache, ms)
			},
		}
	}
	return jobs, nil
}

// ExecuteJob runs one grid point: build (or fetch) the schedule, build the
// topology from the job seed, run the workload, and collect metrics.
func ExecuteJob(ctx context.Context, spec JobSpec, seed uint64, cache *schedcache.Cache[*ttdc.Schedule]) (*Metrics, error) {
	return executeJob(ctx, spec, seed, cache, memos{})
}

func executeJob(ctx context.Context, spec JobSpec, seed uint64, cache *schedcache.Cache[*ttdc.Schedule], ms memos) (*Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := buildSchedule(spec, cache, ms.scheds)
	if err != nil {
		return nil, err
	}
	m := &Metrics{L: s.L(), ActiveFraction: s.ActiveFraction()}
	if spec.Workload == "analysis" {
		avg := ttdc.AvgThroughput(s, spec.D)
		m.AvgThroughput = avg.RatString()
		m.AvgThroughputFloat = ttdc.RatFloat(avg)
		return m, nil
	}
	if !deterministicTopology(spec.Topology) {
		// Seeded graphs differ per replication (see graphKey), and a
		// kernel keyed by one would only pin a one-shot memo entry.
		ms.graphs, ms.ccKernels = nil, nil
	}
	g, err := ms.graphs.get(graphKey{topology: spec.Topology, n: spec.N, d: spec.D},
		func() (*ttdc.Graph, error) { return buildTopology(spec, seed) })
	if err != nil {
		return nil, err
	}
	m.Nodes = g.N()
	m.Edges = g.EdgeCount()
	switch spec.Workload {
	case "saturation":
		k, err := ms.satKernels.get(satKernelKey{s: s, n: g.N()},
			func() (*ttdc.SaturationKernel, error) { return ttdc.NewSaturationKernel(s, g.N()) })
		if err != nil {
			return nil, err
		}
		res, err := k.RunSharded(g, spec.Frames, ttdc.DefaultEnergy(), spec.Shards)
		if err != nil {
			return nil, err
		}
		m.MinLinkThroughput = res.MinLinkThroughput
		m.AvgLinkThroughput = res.AvgLinkThroughput
		m.Collisions = res.CollisionSlots
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	case "convergecast":
		k, err := ms.ccKernels.get(ccKernelKey{s: s, g: g, sink: spec.Sink},
			func() (*ttdc.ConvergecastKernel, error) { return ttdc.NewConvergecastKernel(g, s, spec.Sink) })
		if err != nil {
			return nil, err
		}
		res, err := k.Run(ttdc.ConvergecastConfig{
			Sink: spec.Sink, Rate: spec.Rate, Frames: spec.Frames, Seed: seed,
			Shards: spec.Shards,
		})
		if err != nil {
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
			return nil, err
		}
		m.Covered = res.Covered
		m.CompletionSlot = res.CompletionSlot
		m.Collisions = res.Collisions
		m.TotalEnergy = res.TotalEnergy
		m.SimActiveFraction = res.ActiveFraction
	default:
		return nil, fmt.Errorf("engine: unknown workload %q", spec.Workload)
	}
	return m, nil
}

// buildSchedule constructs the job's schedule. scheds, when non-nil,
// shares each build across the campaign's jobs: the base schedule of a
// (construction, n, D) class is memoized under its own key, so every duty
// point of the class runs Construct on one base. Polynomial jobs go
// through the cross-campaign cache instead when one is supplied; every
// other construction is then held to the cache's limits, checked from
// closed forms before anything is materialized. Both layers are
// singleflight under concurrency.
func buildSchedule(spec JobSpec, cache *schedcache.Cache[*ttdc.Schedule], scheds *memo[schedKey, *ttdc.Schedule]) (*ttdc.Schedule, error) {
	strategy, err := schedcache.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	baseKey := schedKey{construction: spec.Construction, n: spec.N, d: spec.D}
	key := baseKey
	if spec.AlphaT != 0 || spec.AlphaR != 0 {
		key.alphaT, key.alphaR, key.strategy = spec.AlphaT, spec.AlphaR, schedcache.StrategyName(strategy)
	}
	ck := schedcache.Key{N: spec.N, D: spec.D, AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, Strategy: strategy}
	if cache != nil {
		if spec.Construction == "polynomial" {
			// Get validates against the cache's own limits — serving bounds
			// for HTTP-fed caches, TrustedLimits for the local CLIs.
			return scheds.get(key, func() (*ttdc.Schedule, error) { return cache.Get(ck) })
		}
		if err := checkBase(spec, ck, cache.Limits()); err != nil {
			return nil, err
		}
	}
	base := func() (*ttdc.Schedule, error) {
		return scheds.get(baseKey, func() (*ttdc.Schedule, error) { return buildBase(spec) })
	}
	if key == baseKey {
		return base()
	}
	return scheds.get(key, func() (*ttdc.Schedule, error) {
		b, err := base()
		if err != nil {
			return nil, err
		}
		if cache != nil {
			if err := cache.Limits().CheckConstruct(ck, b); err != nil {
				return nil, err
			}
		}
		return ttdc.Construct(b, ttdc.ConstructOptions{
			AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, D: spec.D, Strategy: strategy,
		})
	})
}

// checkBase holds a non-polynomial job to lim before its base is built:
// the key must validate, and the base's closed-form frame length — n for
// TDMA, the triple system's order for Steiner, p²+p+1 for the projective
// plane — must keep n×L within the budget.
func checkBase(spec JobSpec, k schedcache.Key, lim schedcache.Limits) error {
	if err := lim.Validate(k); err != nil {
		return err
	}
	var l int
	switch spec.Construction {
	case "tdma":
		l = spec.N
	case "steiner":
		l = cff.STSOrderFor(spec.N)
	case "projective":
		p := cff.ProjectiveOrderFor(spec.N, spec.D)
		l = p*p + p + 1
	default:
		return fmt.Errorf("engine: unknown construction %q", spec.Construction)
	}
	return lim.CheckBase(k, l)
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
// identical across reruns of the same job. The seeded models are rejected
// above the dense-representation limit, where their per-node bitsets
// would cost O(n²) bits.
func buildTopology(spec JobSpec, seed uint64) (*ttdc.Graph, error) {
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
