package ttdc

import (
	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Topology, simulation, and baseline re-exports: one import serves a whole
// experiment.

// Graph is an undirected network graph over nodes {0..n-1}.
type Graph = topology.Graph

// Deployment is a unit-square node placement with its induced unit-disk
// graph; Step implements a simple mobility model.
type Deployment = topology.Deployment

// RNG is the deterministic random generator used by every randomized
// component; same seed, same stream, on every platform.
type RNG = stats.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return topology.NewGraph(n) }

// Ring returns the n-cycle (every degree 2).
func Ring(n int) *Graph { return topology.Ring(n) }

// Line returns the n-node path.
func Line(n int) *Graph { return topology.Line(n) }

// Star returns the n-node star centred at node 0.
func Star(n int) *Graph { return topology.Star(n) }

// Grid returns the rows×cols 4-neighbour grid.
func Grid(rows, cols int) *Graph { return topology.Grid(rows, cols) }

// Regularish returns a deterministic d-regular graph on n nodes (the
// worst-case topology: every node at the degree bound).
func Regularish(n, d int) *Graph { return topology.Regularish(n, d) }

// RandomGeometric places n nodes uniformly in the unit square and connects
// pairs within radius (the standard WSN deployment model).
func RandomGeometric(n int, radius float64, rng *RNG) *Deployment {
	return topology.RandomGeometric(n, radius, rng)
}

// RandomBoundedDegree returns a connected random graph with max degree d.
func RandomBoundedDegree(n, d, extraEdges int, rng *RNG) *Graph {
	return topology.RandomBoundedDegree(n, d, extraEdges, rng)
}

// EnergyModel holds radio power draws; DefaultEnergy is CC2420-class.
type EnergyModel = sim.EnergyModel

// DefaultEnergy returns the CC2420-class energy model.
func DefaultEnergy() EnergyModel { return sim.DefaultEnergy() }

// SaturationResult reports a worst-case saturation simulation.
type SaturationResult = sim.SaturationResult

// RunSaturation simulates the paper's worst case: every node transmits in
// every eligible slot; per-link collision-free deliveries are counted.
func RunSaturation(g *Graph, s *Schedule, frames int, em EnergyModel) (*SaturationResult, error) {
	return sim.RunSaturation(g, s, frames, em)
}

// RunSaturationSharded is RunSaturation with the frame resolution split
// across word-aligned node ranges (0 or 1 shard = sequential, negative =
// one per CPU). Results are byte-identical at every shard count.
func RunSaturationSharded(g *Graph, s *Schedule, frames int, em EnergyModel, shards int) (*SaturationResult, error) {
	return sim.RunSaturationSharded(g, s, frames, em, shards)
}

// SaturationKernel is the reusable topology-independent precomputation of
// the saturation fast path; build one per (schedule, n) and share it across
// the topologies of a campaign.
type SaturationKernel = sim.SaturationKernel

// NewSaturationKernel precomputes the saturation fast path for schedule s
// over graphs on exactly n nodes.
func NewSaturationKernel(s *Schedule, n int) (*SaturationKernel, error) {
	return sim.NewSaturationKernel(s, n)
}

// ConvergecastKernel is the reusable precomputation of the convergecast
// fast path for one (graph, schedule, sink) triple; build one per grid
// point and share it across a campaign's replications.
type ConvergecastKernel = sim.ConvergecastKernel

// NewConvergecastKernel validates the triple and precomputes the
// convergecast fast path.
func NewConvergecastKernel(g *Graph, s *Schedule, sink int) (*ConvergecastKernel, error) {
	return sim.NewConvergecastKernel(g, s, sink)
}

// GuaranteedPerLink computes the analytical per-frame guaranteed delivery
// count for every directed link of g under s.
func GuaranteedPerLink(g *Graph, s *Schedule) map[int]map[int]int {
	return sim.GuaranteedPerLink(g, s)
}

// ConvergecastConfig parameterizes a Poisson data-collection simulation.
type ConvergecastConfig = sim.ConvergecastConfig

// TrafficPhase is one segment of a time-varying load pattern.
type TrafficPhase = sim.TrafficPhase

// ConvergecastResult reports a data-collection simulation.
type ConvergecastResult = sim.ConvergecastResult

// RunConvergecast simulates Poisson data collection to a sink over a BFS
// routing tree under schedule s.
func RunConvergecast(g *Graph, s *Schedule, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	return sim.RunConvergecast(g, s, cfg)
}

// Protocol abstracts "who does what in a slot"; implementations include
// ScheduleProtocol (this library's MAC) and the contention baselines below.
type Protocol = sim.Protocol

// ScheduleProtocol drives roles from a Schedule.
type ScheduleProtocol = sim.ScheduleProtocol

// NewAloha returns slotted ALOHA with per-slot transmit probability p —
// the always-listening contention reference.
func NewAloha(p float64, seed uint64) Protocol { return sim.NewAloha(p, seed) }

// NewDutyAloha returns uncoordinated duty-cycled ALOHA: transmit with
// probability pTx, otherwise listen with probability pListen, else sleep.
func NewDutyAloha(pTx, pListen float64, seed uint64) Protocol {
	return sim.NewDutyAloha(pTx, pListen, seed)
}

// NewQuorum returns grid-quorum duty cycling (awake in one row + one
// column of a side×side slot grid): guaranteed pairwise rendezvous, no
// collision freedom — the classic asynchronous power-saving baseline.
func NewQuorum(n, side int, p float64, seed uint64) (*sim.QuorumProtocol, error) {
	return sim.NewQuorum(n, side, p, seed)
}

// RunConvergecastProtocol is RunConvergecast for an arbitrary Protocol.
func RunConvergecastProtocol(g *Graph, p Protocol, cfg ConvergecastConfig) (*ConvergecastResult, error) {
	return sim.RunConvergecastProtocol(g, p, cfg)
}

// FloodConfig parameterizes a dissemination run.
type FloodConfig = sim.FloodConfig

// FloodResult reports a dissemination run.
type FloodResult = sim.FloodResult

// RunFlood simulates network-wide dissemination from a source. Under a
// topology-transparent schedule the frontier advances at least one hop per
// frame, so completion takes at most Eccentricity(g, source) frames.
func RunFlood(g *Graph, p Protocol, cfg FloodConfig) (*FloodResult, error) {
	return sim.RunFlood(g, p, cfg)
}

// Eccentricity returns the greatest BFS distance from src (-1 if g is
// disconnected): the analytic flood-completion bound in frames.
func Eccentricity(g *Graph, src int) int { return sim.Eccentricity(g, src) }

// DiscoveryResult reports a neighbour-discovery run.
type DiscoveryResult = sim.DiscoveryResult

// RunDiscovery simulates neighbour discovery (all nodes beaconing). Under a
// topology-transparent schedule every directed link is discovered within
// the first frame.
func RunDiscovery(g *Graph, p Protocol, maxFrames int, em EnergyModel, seed uint64) (*DiscoveryResult, error) {
	return sim.RunDiscovery(g, p, maxFrames, em, seed)
}

// ScaleFreeBounded grows a hub-heavy preferential-attachment graph with a
// degree cap.
func ScaleFreeBounded(n, m, maxDeg int, rng *RNG) *Graph {
	return topology.ScaleFreeBounded(n, m, maxDeg, rng)
}

// TwoCommunities builds two dense communities joined by a thin bridge (a
// convergecast bottleneck), degrees capped at maxDeg.
func TwoCommunities(sizeA, sizeB, bridges, maxDeg int, rng *RNG) *Graph {
	return topology.TwoCommunities(sizeA, sizeB, bridges, maxDeg, rng)
}

// Corridor builds a rows×length strip deployment (tunnel/pipeline
// monitoring: long diameter, small cross-section).
func Corridor(rows, length int) *Graph { return topology.Corridor(rows, length) }

// AdaptiveProtocol switches between a low-power and a high-throughput
// topology-transparent schedule at frame boundaries based on observed load.
// Every frame is a complete frame of a TT schedule, so every link keeps a
// guaranteed slot per frame regardless of the switching sequence.
type AdaptiveProtocol = sim.AdaptiveProtocol

// NewAdaptive builds an adaptive protocol over two schedules on the same
// node universe with hysteresis thresholds (switch up when frame load
// exceeds up, down when it falls below down).
func NewAdaptive(low, high *Schedule, up, down float64) (*AdaptiveProtocol, error) {
	return sim.NewAdaptive(low, high, up, down)
}

// Gini returns the Gini coefficient of non-negative values (0 = perfectly
// equal): the fairness metric for per-node energy expenditure.
func Gini(values []float64) float64 { return stats.Gini(values) }

// Channel models non-collision packet losses (erasures, capture effect);
// the zero value is the paper's ideal collision-only channel.
type Channel = sim.Channel

// ClockModel models imperfect slot synchronization (crystal drift, guard
// bands, periodic resynchronization).
type ClockModel = sim.ClockModel

// RequiredResyncInterval returns the largest resynchronization period (in
// slots) that keeps every node pair within the clock model's guard band.
func RequiredResyncInterval(m ClockModel) int { return sim.RequiredResyncInterval(m) }

// Tracer consumes slot-level simulator events (set ConvergecastConfig.
// Tracer); see internal/trace for the Ring/Counter/Writer implementations.
type Tracer = trace.Tracer

// TraceEvent is one simulator occurrence.
type TraceEvent = trace.Event

// NewTraceRing returns a tracer retaining the most recent capacity events.
func NewTraceRing(capacity int) *trace.Ring { return trace.NewRing(capacity) }

// NewTraceCounter returns a tracer aggregating per-kind event counts.
func NewTraceCounter() *trace.Counter { return trace.NewCounter() }

// LifetimeEstimate is the analytical battery-lifetime projection.
type LifetimeEstimate = sim.LifetimeEstimate

// EstimateLifetime projects per-node battery lifetime under s from the
// schedule's role densities (saturated-traffic assumption; see sim).
func EstimateLifetime(s *Schedule, em EnergyModel, batteryJoules float64) (*LifetimeEstimate, error) {
	return sim.EstimateLifetime(s, em, batteryJoules)
}

// ColoringTDMA builds a topology-DEPENDENT distance-2-coloring TDMA
// schedule for a known graph — collision-free there, no guarantee after
// topology change (the foil for topology transparency).
func ColoringTDMA(g *Graph) (*Schedule, error) { return baseline.ColoringTDMA(g) }

// RandomDutyCycle builds an uncoordinated random schedule (no guarantees).
func RandomDutyCycle(n, l int, pTx, pRx float64, rng *RNG) (*Schedule, error) {
	return baseline.RandomDutyCycle(n, l, pTx, pRx, rng)
}

// Symmetric builds the (α, α)-schedule special case via Construct.
func Symmetric(ns *Schedule, d, alpha int) (*Schedule, error) {
	return baseline.Symmetric(ns, d, alpha)
}
