package schedcache

import (
	"fmt"

	"repro/internal/cff"
	"repro/internal/core"
)

// base is one named topology-transparent non-sleeping construction: a
// schedule the paper's Construct can start from.
type base struct {
	name string
	// onlyD, when nonzero, is the one degree bound the construction is
	// topology-transparent for.
	onlyD int
	// frame returns the base's closed-form frame length for N(n, D) and
	// the build that materializes it. Only scalar parameter searches run
	// before build, so a budget check on the length costs no allocation
	// of the schedule's size.
	frame func(n, d int) (int, func() (*core.Schedule, error), error)
}

// bases is every named base, in the order the planner tries them.
var bases = []base{
	{name: "tdma", frame: func(n, _ int) (int, func() (*core.Schedule, error), error) {
		return n, func() (*core.Schedule, error) { return fromFamily(cff.Identity(n)) }, nil
	}},
	{name: "polynomial", frame: func(n, d int) (int, func() (*core.Schedule, error), error) {
		p, err := cff.FindPolynomialParams(n, d)
		if err != nil {
			return 0, nil, err
		}
		return p.FrameLength(), func() (*core.Schedule, error) {
			slots, err := cff.PolynomialSlots(n, p)
			if err != nil {
				return nil, err
			}
			return core.NonSleepingFromSets(n, slots)
		}, nil
	}},
	{name: "steiner", onlyD: 2, frame: func(n, _ int) (int, func() (*core.Schedule, error), error) {
		return cff.STSOrderFor(n), func() (*core.Schedule, error) { return fromFamily(cff.Steiner(n)) }, nil
	}},
	{name: "projective", frame: func(n, d int) (int, func() (*core.Schedule, error), error) {
		p := cff.ProjectiveOrderFor(n, d)
		return p*p + p + 1, func() (*core.Schedule, error) { return fromFamily(cff.ProjectiveFor(n, d)) }, nil
	}},
}

func fromFamily(f *cff.Family, err error) (*core.Schedule, error) {
	if err != nil {
		return nil, err
	}
	return core.ScheduleFromFamily(f.L, f.Sets)
}

// BaseNames lists the named bases, in the order the planner tries them.
func BaseNames() []string {
	names := make([]string, len(bases))
	for i, b := range bases {
		names[i] = b.name
	}
	return names
}

// lookupBase returns the named base, or an error when there is none or
// it is not topology-transparent at degree bound d.
func lookupBase(name string, d int) (*base, error) {
	for i := range bases {
		b := &bases[i]
		if b.name != name {
			continue
		}
		if b.onlyD != 0 && d != b.onlyD {
			return nil, fmt.Errorf("schedcache: %s construction supports D = %d only (got %d)", name, b.onlyD, d)
		}
		return b, nil
	}
	return nil, fmt.Errorf("schedcache: unknown construction %q", name)
}

// BuildBase builds the named base for N(n, D) with no budget: for callers
// that chose the class themselves, such as the root constructors, the
// CLIs, the planner and the experiments.
func BuildBase(name string, n, d int) (*core.Schedule, error) {
	b, err := lookupBase(name, d)
	if err != nil {
		return nil, err
	}
	_, build, err := b.frame(n, d)
	if err != nil {
		return nil, err
	}
	return build()
}

// BuildBaseLimited is BuildBase held to lim: it validates k, applies the
// base's degree rule and checks its closed-form frame length against the
// n×L budget, all before anything is built. The caps and strategy of k
// are validated but play no part in the base.
func BuildBaseLimited(name string, k Key, lim Limits) (*core.Schedule, error) {
	if err := lim.Validate(k); err != nil {
		return nil, err
	}
	b, err := lookupBase(name, k.D)
	if err != nil {
		return nil, err
	}
	l, build, err := b.frame(k.N, k.D)
	if err != nil {
		return nil, err
	}
	if err := lim.CheckBase(k, l); err != nil {
		return nil, err
	}
	return build()
}
