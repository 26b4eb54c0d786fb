// Package ttdc is a library for topology-transparent duty cycling in
// wireless sensor networks, reproducing Chen, Fleury and Syrotiuk,
// "Topology-Transparent Duty Cycling for Wireless Sensor Networks"
// (IPDPS/IPPS 2007).
//
// A schedule ⟨T,R⟩ assigns every node one of three roles per slot —
// transmit-eligible, receive-eligible, or sleep — and repeats with frame
// length L. The schedule is topology-transparent for the network class
// N(n, D) (at most n nodes, degree at most D) when every node is
// guaranteed a collision-free slot toward every neighbour once per frame
// in every topology of the class. The package provides:
//
//   - Constructions of topology-transparent non-sleeping schedules from
//     cover-free families: plain TDMA, the orthogonal-array (polynomial
//     over GF(q)) construction, and Steiner triple systems.
//   - The paper's Construct algorithm, which converts any such schedule
//     into an (αT, αR)-schedule — at most αT transmitters and αR receivers
//     awake per slot — that remains topology-transparent (Theorem 6), with
//     analytical frame-length, average-throughput and minimum-throughput
//     guarantees (Theorems 7-9).
//   - Exact (rational-arithmetic) worst-case throughput analysis:
//     Definitions 1-2, the Theorem 2 closed form, and the Theorem 3/4
//     upper bounds with their optimal per-slot transmitter counts.
//   - Requirement checkers (Requirements 1-3) with violation witnesses.
//   - A slot-level WSN simulator (collision model, Poisson convergecast,
//     CC2420-class energy accounting) and topology generators to exercise
//     schedules on concrete networks.
//   - Baselines: topology-dependent coloring TDMA, uncoordinated random
//     duty cycling, and the symmetric (α, α) construction.
//
// # Quick start
//
//	ns, _ := ttdc.PolynomialSchedule(25, 2)        // TT non-sleeping, N(25, 2)
//	duty, _ := ttdc.Construct(ns, ttdc.ConstructOptions{
//	    AlphaT: 3, AlphaR: 5, D: 2,
//	})
//	fmt.Println(ttdc.AvgThroughput(duty, 2))       // exact rational
//	fmt.Println(duty.ActiveFraction())             // energy proxy
//
// All randomized components take explicit seeds; every result in this
// repository is reproducible bit-for-bit.
package ttdc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// Schedule is a periodic ⟨T,R⟩ activity schedule. See core.Schedule for
// the full method set (Tran, Recv, FreeSlots, Sigma, TSlots, RoleOf,
// ActiveFraction, ...).
type Schedule = core.Schedule

// Role is a node's activity in a slot: Transmit, Receive or Sleep.
type Role = core.Role

// Node roles.
const (
	Sleep    = core.Sleep
	Transmit = core.Transmit
	Receive  = core.Receive
)

// ConstructOptions parameterizes Construct; see the field documentation in
// package core.
type ConstructOptions = core.ConstructOptions

// DivisionStrategy selects how Construct splits transmitter sets; see the
// constants below.
type DivisionStrategy = core.DivisionStrategy

// Division strategies for Construct.
const (
	Sequential = core.Sequential
	Balanced   = core.Balanced
)

// Witness is a violation certificate from the Requirement-1/3 checkers.
type Witness = core.Witness

// Req2Witness is a violation certificate from the Requirement-2 checker.
type Req2Witness = core.Req2Witness

// NewSchedule builds a schedule from explicit per-slot transmitter and
// receiver node lists over the universe {0..n-1}.
func NewSchedule(n int, t, r [][]int) (*Schedule, error) { return core.New(n, t, r) }

// NewNonSleeping builds a non-sleeping schedule (R[i] = V - T[i]) from
// per-slot transmitter lists.
func NewNonSleeping(n int, t [][]int) (*Schedule, error) { return core.NonSleeping(n, t) }

// TDMA returns the round-robin TDMA schedule on n nodes: frame length n,
// node i transmits in slot i, everyone else listens. It is
// topology-transparent for every D <= n-1, at the cost of the longest
// per-node wait.
func TDMA(n int) (*Schedule, error) { return schedcache.BuildBase("tdma", n, 1) }

// PolynomialSchedule returns a topology-transparent non-sleeping schedule
// for N(n, D) built from the orthogonal-array (polynomial over GF(q))
// cover-free family of Chlamtac-Farago and Ju-Li, using the smallest
// feasible field. Frame length is q² with q the least prime power
// admitting n nodes at degree bound D.
func PolynomialSchedule(n, d int) (*Schedule, error) { return schedcache.BuildBase("polynomial", n, d) }

// SteinerSchedule returns a topology-transparent non-sleeping schedule for
// N(n, 2) built from a Steiner triple system (member sets are blocks;
// distinct blocks share at most one point). Only D = 2 is supported by
// this construction; for larger D see ProjectiveSchedule.
func SteinerSchedule(n int) (*Schedule, error) { return schedcache.BuildBase("steiner", n, 2) }

// ProjectiveSchedule returns a topology-transparent non-sleeping schedule
// for N(n, D) whose transmission sets are lines of a projective plane
// PG(2, p) built from a Singer difference set — the Steiner system
// S(2, p+1, p²+p+1) generalizing triple systems to D up to p. The least
// prime p >= D with p²+p+1 >= n is used; the frame length is p²+p+1.
func ProjectiveSchedule(n, d int) (*Schedule, error) { return schedcache.BuildBase("projective", n, d) }

// ScheduleFromSlotSets builds a non-sleeping schedule from per-node
// transmission slot sets given as plain slices: node x transmits in the
// slots listed in sets[x] ⊆ [0, frameLen).
func ScheduleFromSlotSets(frameLen int, sets [][]int) (*Schedule, error) {
	fam := make([][]int, len(sets))
	copy(fam, sets)
	t := make([][]int, frameLen)
	for x, slots := range fam {
		for _, i := range slots {
			if i < 0 || i >= frameLen {
				return nil, fmt.Errorf("ttdc: node %d slot %d out of range [0,%d)", x, i, frameLen)
			}
			t[i] = append(t[i], x)
		}
	}
	return core.NonSleeping(len(sets), t)
}

// Construct runs the paper's Figure 2 algorithm: from a
// topology-transparent non-sleeping schedule it builds an (αT, αR)
// duty-cycling schedule that is still topology-transparent for N(n, D).
func Construct(ns *Schedule, opts ConstructOptions) (*Schedule, error) {
	return core.Construct(ns, opts)
}

// ScheduleCache is a concurrency-safe, size-bounded (LRU) memoizing cache
// over schedule construction with singleflight deduplication: N concurrent
// requests for the same (n, D, αT, αR, strategy) key trigger exactly one
// construction. See internal/schedcache and cmd/ttdcserve.
type ScheduleCache = schedcache.Cache[*Schedule]

// ScheduleCacheKey identifies a cached schedule request; zero AlphaT and
// AlphaR request the non-sleeping base schedule.
type ScheduleCacheKey = schedcache.Key

// ScheduleCacheStats is an atomic snapshot of cache counters.
type ScheduleCacheStats = schedcache.Stats

// NewScheduleCache returns a schedule cache holding at most capacity
// entries (a default when capacity <= 0).
func NewScheduleCache(capacity int) *ScheduleCache { return schedcache.New(capacity) }

// IsTopologyTransparent reports whether s satisfies Requirement 3
// (equivalently Requirement 2, Theorem 1) for the class N(s.N(), d).
func IsTopologyTransparent(s *Schedule, d int) bool { return core.IsTopologyTransparent(s, d) }

// CheckRequirement1 exhaustively verifies the non-sleeping (cover-free)
// condition on ⟨T⟩ and returns a violation witness or nil.
func CheckRequirement1(s *Schedule, d int) *Witness { return core.CheckRequirement1(s, d) }

// CheckRequirement2 exhaustively verifies Requirement 2 and returns a
// violation witness or nil.
func CheckRequirement2(s *Schedule, d int) *Req2Witness { return core.CheckRequirement2(s, d) }

// CheckRequirement3 exhaustively verifies Requirement 3 and returns a
// violation witness or nil.
func CheckRequirement3(s *Schedule, d int) *Witness { return core.CheckRequirement3(s, d) }

// CheckRequirement1Parallel is CheckRequirement1 distributed over worker
// goroutines (0 = GOMAXPROCS); deterministic smallest-x witness.
func CheckRequirement1Parallel(s *Schedule, d, workers int) *Witness {
	return core.CheckRequirement1Parallel(s, d, workers)
}

// CheckRequirement3Parallel is CheckRequirement3 distributed over worker
// goroutines (0 = GOMAXPROCS); deterministic smallest-x witness.
func CheckRequirement3Parallel(s *Schedule, d, workers int) *Witness {
	return core.CheckRequirement3Parallel(s, d, workers)
}
