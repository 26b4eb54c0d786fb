// Package plan turns application requirements into a concrete
// topology-transparent duty-cycling schedule. It searches the construction
// space the library offers — base cover-free family × (αT, αR) caps ×
// division strategy — and returns the candidate that maximizes projected
// battery lifetime subject to worst-case hop-latency and throughput
// constraints, with a rationale a deployment engineer can review.
//
// This is the orchestration layer the paper leaves implicit: §1 frames
// αT/αR as "parameters that capture applications' requirement on energy
// efficiency"; Best makes that mapping executable.
package plan

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/combin"
	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/sim"
)

// Requirements captures what the deployment needs. Zero values mean
// "unconstrained" (except the class parameters, which are mandatory).
type Requirements struct {
	// MaxNodes and MaxDegree define the network class N(n, D).
	MaxNodes, MaxDegree int
	// MaxHopLatencySeconds caps the worst-case wait for a guaranteed
	// collision-free slot on any hop (0 = unconstrained).
	MaxHopLatencySeconds float64
	// MinLifetimeYears floors the projected first-death lifetime under
	// saturated traffic (0 = unconstrained).
	MinLifetimeYears float64
	// MinAvgThroughput floors the average worst-case throughput
	// (0 = unconstrained).
	MinAvgThroughput float64
	// BatteryJoules sizes the lifetime projection; 0 means 20000 J.
	BatteryJoules float64
	// Energy is the radio model; the zero value means sim.DefaultEnergy.
	Energy sim.EnergyModel
	// Balanced requests the §7 balanced-energy division for constructed
	// schedules.
	Balanced bool
}

// Plan is a chosen schedule with its projected figures of merit.
type Plan struct {
	// Schedule is the chosen schedule.
	Schedule *core.Schedule
	// Base names the underlying cover-free construction.
	Base string
	// AlphaT and AlphaR are the duty-cycling caps; (0, 0) means the base
	// non-sleeping schedule was chosen.
	AlphaT, AlphaR int
	// HopLatencySeconds is the worst-case guaranteed-slot wait.
	HopLatencySeconds float64
	// LifetimeYears is the projected first-death lifetime.
	LifetimeYears float64
	// AvgThroughput and MinThroughput are the exact analysis figures.
	AvgThroughput, MinThroughput *big.Rat
	// ActiveFraction is the schedule's awake fraction (energy proxy).
	ActiveFraction float64
	// Rationale explains the choice and the rejected constraints.
	Rationale []string
}

const yearSeconds = 365.25 * 24 * 3600

// Best searches the candidate space and returns the feasible plan with the
// longest projected lifetime (ties broken toward higher minimum
// throughput). It returns an error describing the binding constraint when
// nothing is feasible.
func Best(req Requirements) (*Plan, error) {
	n, d := req.MaxNodes, req.MaxDegree
	if n < 3 || d < 1 || d > n-1 {
		return nil, fmt.Errorf("plan: class N(%d, %d) invalid", n, d)
	}
	em := req.Energy
	if em == (sim.EnergyModel{}) {
		em = sim.DefaultEnergy()
	}
	if em.SlotSeconds <= 0 {
		return nil, fmt.Errorf("plan: energy model has no slot duration")
	}
	battery := req.BatteryJoules
	if battery == 0 {
		battery = 20000
	}

	bases, err := candidateBases(n, d)
	if err != nil {
		return nil, err
	}
	var feasible []*Plan
	var closest *Plan // best-lifetime candidate ignoring feasibility
	var closestWhy string
	for _, base := range bases {
		for _, caps := range candidateCaps(n, d) {
			s := base.s
			alphaT, alphaR := 0, 0
			if caps[0] > 0 {
				alphaT, alphaR = caps[0], caps[1]
				if alphaT+alphaR > n {
					continue
				}
				strategy := core.Sequential
				if req.Balanced {
					strategy = core.Balanced
				}
				var err error
				s, err = core.Construct(base.s, core.ConstructOptions{
					AlphaT: alphaT, AlphaR: alphaR, D: d, Strategy: strategy,
				})
				if err != nil {
					continue
				}
			}
			p, why := evaluate(s, base.name, alphaT, alphaR, n, d, em, battery, req)
			if why == "" {
				feasible = append(feasible, p)
			} else if closest == nil || p.LifetimeYears > closest.LifetimeYears {
				closest, closestWhy = p, why
			}
		}
	}
	if len(feasible) == 0 {
		if closest != nil {
			return nil, fmt.Errorf("plan: no feasible schedule; best infeasible candidate %s(%d,%d) fails: %s",
				closest.Base, closest.AlphaT, closest.AlphaR, closestWhy)
		}
		return nil, fmt.Errorf("plan: no candidate schedules for N(%d, %d)", n, d)
	}
	sort.Slice(feasible, func(i, j int) bool {
		if feasible[i].LifetimeYears != feasible[j].LifetimeYears {
			return feasible[i].LifetimeYears > feasible[j].LifetimeYears
		}
		return feasible[i].MinThroughput.Cmp(feasible[j].MinThroughput) > 0
	})
	best := feasible[0]
	best.Rationale = append(best.Rationale,
		fmt.Sprintf("chose %s with caps (%d, %d): %.2f y projected lifetime, %.3f s worst hop wait, Thr^min %s",
			best.Base, best.AlphaT, best.AlphaR, best.LifetimeYears,
			best.HopLatencySeconds, best.MinThroughput.RatString()),
		fmt.Sprintf("%d candidate(s) were feasible; lifetime was the objective, min-throughput the tie-break", len(feasible)),
	)
	return best, nil
}

type baseCandidate struct {
	name string
	s    *core.Schedule
}

// candidateBases builds the non-sleeping bases available for the class:
// every named base that builds for it.
func candidateBases(n, d int) ([]baseCandidate, error) {
	var out []baseCandidate
	for _, name := range schedcache.BaseNames() {
		if s, err := schedcache.BuildBase(name, n, d); err == nil {
			out = append(out, baseCandidate{name, s})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: no construction available for N(%d, %d)", n, d)
	}
	return out, nil
}

// candidateCaps enumerates (αT, αR) pairs to try; (0, 0) means "keep the
// non-sleeping base".
func candidateCaps(n, d int) [][2]int {
	out := [][2]int{{0, 0}}
	aStarGen := core.OptimalTransmitters(n, d)
	seen := map[[2]int]bool{}
	for _, alphaT := range []int{1, 2, 3, aStarGen} {
		if alphaT < 1 {
			continue
		}
		for _, mult := range []int{1, 2, 4} {
			alphaR := alphaT * mult
			if alphaR < 1 || alphaT+alphaR > n {
				continue
			}
			c := [2]int{alphaT, alphaR}
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// latencyExactScanLimit bounds the exhaustive worst-case-latency scan; for
// larger classes the valid upper bound L-1 is used instead.
const latencyExactScanLimit = 26

// evaluate scores one candidate; why == "" means feasible.
func evaluate(s *core.Schedule, base string, alphaT, alphaR, n, d int,
	em sim.EnergyModel, battery float64, req Requirements) (*Plan, string) {
	p := &Plan{
		Schedule:       s,
		Base:           base,
		AlphaT:         alphaT,
		AlphaR:         alphaR,
		AvgThroughput:  core.AvgThroughput(s, d),
		ActiveFraction: s.ActiveFraction(),
	}
	// Latency: exact scan for small classes, L-1 upper bound otherwise
	// (valid for every TT schedule, per core.WorstCaseHopLatency).
	latSlots := s.L() - 1
	if n <= latencyExactScanLimit {
		if exact, ok := core.WorstCaseHopLatency(s, d); ok {
			latSlots = exact
		} else {
			return p, "not topology-transparent"
		}
		p.MinThroughput = core.MinThroughput(s, d)
	} else {
		// Trust the construction's guarantee (Theorem 6) without the
		// exponential scan; report the Theorem 9 style floor.
		p.MinThroughput = big.NewRat(1, int64(s.L()))
		p.Rationale = append(p.Rationale,
			fmt.Sprintf("n=%d exceeds the exact-scan limit; using L-1 latency bound and 1/L throughput floor", n))
	}
	p.HopLatencySeconds = float64(latSlots) * em.SlotSeconds
	est, err := sim.EstimateLifetime(s, em, battery)
	if err != nil {
		return p, err.Error()
	}
	p.LifetimeYears = est.MinSeconds / yearSeconds

	if req.MaxHopLatencySeconds > 0 && p.HopLatencySeconds > req.MaxHopLatencySeconds {
		return p, fmt.Sprintf("hop latency %.3f s exceeds cap %.3f s",
			p.HopLatencySeconds, req.MaxHopLatencySeconds)
	}
	if req.MinLifetimeYears > 0 && p.LifetimeYears < req.MinLifetimeYears {
		return p, fmt.Sprintf("lifetime %.2f y below floor %.2f y",
			p.LifetimeYears, req.MinLifetimeYears)
	}
	if req.MinAvgThroughput > 0 {
		// Compare exactly: SetFloat64 lifts the float floor into the
		// rational domain instead of rounding the exact figure down to it.
		floor := new(big.Rat).SetFloat64(req.MinAvgThroughput)
		if floor != nil && p.AvgThroughput.Cmp(floor) < 0 {
			return p, fmt.Sprintf("Thr^ave %.6f below floor %.6f",
				combin.RatFloat(p.AvgThroughput), req.MinAvgThroughput)
		}
	}
	return p, ""
}
