package schedcache

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cff"
	"repro/internal/core"
)

// sameSchedule reports whether a and b have the same transmitter and
// receiver set in every slot.
func sameSchedule(a, b *core.Schedule) bool {
	if a.N() != b.N() || a.L() != b.L() {
		return false
	}
	for i := 0; i < a.L(); i++ {
		if !a.T(i).Equal(b.T(i)) || !a.R(i).Equal(b.R(i)) {
			return false
		}
	}
	return true
}

// TestBuildBaseLimitedBudget holds every named base to one budget policy:
// below the class's n×L the bounded build returns CheckBase's error, and
// at n×L it returns the schedule the unbounded build does. The budget is
// set from the built frame length, so the closed form each base is
// checked by must equal it exactly. Steiner at D = 3 is refused by both
// entries with the degree rule.
func TestBuildBaseLimitedBudget(t *testing.T) {
	if got := BaseNames(); !slices.Equal(got, []string{"tdma", "polynomial", "steiner", "projective"}) {
		t.Fatalf("BaseNames() = %v", got)
	}
	for _, name := range BaseNames() {
		for _, n := range []int{9, 13, 40, 70} {
			for _, d := range []int{2, 3} {
				k := Key{N: n, D: d}
				want, err := BuildBase(name, n, d)
				if name == "steiner" && d != 2 {
					const rule = "schedcache: steiner construction supports D = 2 only (got 3)"
					_, errLimited := BuildBaseLimited(name, k, TrustedLimits)
					for _, err := range []error{err, errLimited} {
						if err == nil || err.Error() != rule {
							t.Errorf("steiner N(%d, 3): error %v, want %q", n, err, rule)
						}
					}
					continue
				}
				if err != nil {
					t.Fatalf("BuildBase(%s, %d, %d): %v", name, n, d, err)
				}
				cells := int64(n) * int64(want.L())
				tight := Limits{MaxN: MaxN, MaxCells: cells - 1}
				_, err = BuildBaseLimited(name, k, tight)
				if wantErr := tight.CheckBase(k, want.L()); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s N(%d, %d) under %d cells: error %v, want %v", name, n, d, cells-1, err, wantErr)
				}
				got, err := BuildBaseLimited(name, k, Limits{MaxN: MaxN, MaxCells: cells})
				if err != nil {
					t.Fatalf("%s N(%d, %d) under %d cells: %v", name, n, d, cells, err)
				}
				if !sameSchedule(got, want) {
					t.Errorf("%s N(%d, %d): bounded and unbounded builds differ", name, n, d)
				}
			}
		}
	}
	if _, err := BuildBase("quantum", 9, 2); err == nil || !strings.Contains(err.Error(), `unknown construction "quantum"`) {
		t.Errorf("unknown base: error %v", err)
	}
}

// TestPolynomialBaseMatchesFamily: the polynomial base, whose slot sets
// are written straight from the polynomial evaluation, is the schedule
// of cff.PolynomialFor's member sets.
func TestPolynomialBaseMatchesFamily(t *testing.T) {
	for _, c := range []struct{ n, d int }{{9, 2}, {16, 3}, {20, 3}, {25, 2}, {49, 3}, {64, 2}, {100, 4}, {130, 2}} {
		fam, err := cff.PolynomialFor(c.n, c.d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ScheduleFromFamily(fam.L, fam.Sets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildBase("polynomial", c.n, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(got, want) {
			t.Errorf("N(%d, %d): polynomial base differs from the family's schedule", c.n, c.d)
		}
	}
}
