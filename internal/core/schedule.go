// Package core implements the paper's primary contribution: the schedule
// model ⟨T,R⟩ for duty-cycled wireless sensor networks, the
// topology-transparency requirements (Requirements 1-3 and their
// equivalence, Theorem 1), the worst-case throughput analysis (Definitions
// 1-2, Theorems 2-4), and the Construct algorithm of Figure 2 together with
// its guarantees (Theorems 6-9).
//
// Throughout, the network class N(n, D) consists of all networks over at
// most n nodes V_n = {0..n-1} in which node degrees are at most D. All
// analysis quantities are exact rationals (math/big), so the paper's
// "equality holds if and only if" statements are machine-checkable.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Schedule is a periodic activity schedule ⟨T,R⟩ over the node universe
// V_n = {0..n-1}: in slot i of each frame the nodes of T[i] may transmit,
// the nodes of R[i] may receive, and all other nodes sleep. T[i] and R[i]
// are disjoint. A Schedule is immutable after construction and safe for
// concurrent use.
type Schedule struct {
	n int
	t []*bitset.Set // per slot, capacity n; slots may share a set
	r []*bitset.Set
	// Per-node slot sets (capacity L) for the checkers and simulators:
	// tran[x] = {i : x ∈ T[i]}, recv[x] = {i : x ∈ R[i]}. Each family is
	// one block transpose of the slot sets, backed by a single slab. Both
	// are derived together on first read (see views): constructing,
	// encoding and the Theorem 2 closed form read only the slot sets, so
	// a schedule that is built and served never pays for them.
	viewsOnce sync.Once
	tran      []*bitset.Set
	recv      []*bitset.Set
}

// New builds a schedule from explicit per-slot transmitter and receiver
// node lists. It validates that the arrays have equal positive length, all
// nodes are in [0, n), and T[i] ∩ R[i] = ∅ for every slot.
func New(n int, t, r [][]int) (*Schedule, error) {
	if len(t) != len(r) {
		return nil, fmt.Errorf("core: |T| = %d but |R| = %d", len(t), len(r))
	}
	ts := make([]*bitset.Set, len(t))
	rs := make([]*bitset.Set, len(r))
	for i := range t {
		ts[i] = bitset.New(n)
		for _, x := range t[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d transmitter %d out of range [0,%d)", i, x, n)
			}
			ts[i].Add(x)
		}
		rs[i] = bitset.New(n)
		for _, x := range r[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d receiver %d out of range [0,%d)", i, x, n)
			}
			rs[i].Add(x)
		}
	}
	return fromOwnedSets(n, ts, rs)
}

// FromSets builds a schedule from per-slot bitsets. The sets are cloned;
// callers may keep mutating their copies.
func FromSets(n int, t, r []*bitset.Set) (*Schedule, error) {
	if err := checkSlotSets(n, t, r); err != nil {
		return nil, err
	}
	return newSchedule(n, cloneSets(t), cloneSets(r)), nil
}

// fromOwnedSets is FromSets for slot sets this package built itself and
// never touches again: they go into the schedule without a clone, and
// several slots may share one set.
func fromOwnedSets(n int, t, r []*bitset.Set) (*Schedule, error) {
	if err := checkSlotSets(n, t, r); err != nil {
		return nil, err
	}
	return newSchedule(n, t, r), nil
}

// checkSlotSets validates per-slot sets for FromSets: equal positive
// lengths, capacity n, and T[i] ∩ R[i] = ∅ in every slot.
func checkSlotSets(n int, t, r []*bitset.Set) error {
	if n < 1 {
		return fmt.Errorf("core: n = %d < 1", n)
	}
	if len(t) == 0 || len(t) != len(r) {
		return fmt.Errorf("core: need equal positive |T| and |R|, got %d and %d", len(t), len(r))
	}
	for i := range t {
		if t[i] == nil || r[i] == nil {
			return fmt.Errorf("core: nil slot set at %d", i)
		}
		if t[i].Cap() != n || r[i].Cap() != n {
			return fmt.Errorf("core: slot %d set capacity != n = %d", i, n)
		}
		if t[i].Intersects(r[i]) {
			return fmt.Errorf("core: slot %d has a node both transmitting and receiving", i)
		}
	}
	return nil
}

func cloneSets(sets []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = s.Clone()
	}
	return out
}

// newSchedule takes ownership of validated slot sets. The per-node views
// are left for views to derive on first read.
func newSchedule(n int, t, r []*bitset.Set) *Schedule {
	return &Schedule{n: n, t: t, r: r}
}

// views returns the per-node view families tran and recv, transposing the
// slot sets on the first call. Every reader of the views inside the
// package goes through here, so the schedule stays immutable from the
// outside and safe for concurrent use.
func (s *Schedule) views() (tran, recv []*bitset.Set) {
	s.viewsOnce.Do(s.deriveViews)
	return s.tran, s.recv
}

func (s *Schedule) deriveViews() {
	s.tran = bitset.Transpose(s.t, s.n)
	s.recv = bitset.Transpose(s.r, s.n)
}

// NonSleeping builds the schedule ⟨T⟩ in which every node not transmitting
// in a slot is receiving: R[i] = V_n - T[i]. Every T[i] must be a proper
// non-empty subset is not required by the model, but an empty T[i] is a
// wasted slot and a full T[i] silences the slot; both are permitted and
// simply score zero throughput.
func NonSleeping(n int, t [][]int) (*Schedule, error) {
	ts := make([]*bitset.Set, len(t))
	for i := range t {
		ts[i] = bitset.New(n)
		for _, x := range t[i] {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("core: slot %d transmitter %d out of range [0,%d)", i, x, n)
			}
			ts[i].Add(x)
		}
	}
	return nonSleeping(n, ts)
}

// NonSleepingFromSets is NonSleeping for prebuilt transmitter bitsets.
func NonSleepingFromSets(n int, t []*bitset.Set) (*Schedule, error) {
	for i := range t {
		if t[i] == nil {
			return nil, fmt.Errorf("core: nil transmitter set at slot %d", i)
		}
	}
	return nonSleeping(n, cloneSets(t))
}

// nonSleeping is NonSleepingFromSets for transmitter sets the package
// owns.
func nonSleeping(n int, t []*bitset.Set) (*Schedule, error) {
	rs := make([]*bitset.Set, len(t))
	full := bitset.New(n)
	for x := 0; x < n; x++ {
		full.Add(x)
	}
	for i := range t {
		r := full.Clone()
		r.DifferenceWith(t[i])
		rs[i] = r
	}
	return fromOwnedSets(n, t, rs)
}

// ScheduleFromFamily builds the non-sleeping schedule whose per-node
// transmission slot sets are the member sets of a set family over ground
// set [0, L): node x transmits in slot i iff i ∈ sets[x], and receives in
// every other slot. When the family is D-cover-free this schedule satisfies
// Requirement 1 (and, being non-sleeping, Requirement 3) for N(n, D).
func ScheduleFromFamily(l int, sets []*bitset.Set) (*Schedule, error) {
	n := len(sets)
	if n == 0 {
		return nil, fmt.Errorf("core: empty family")
	}
	if l < 1 {
		return nil, fmt.Errorf("core: frame length %d < 1", l)
	}
	for x, slots := range sets {
		if slots == nil {
			return nil, fmt.Errorf("core: nil member set %d", x)
		}
		if m := slots.Max(); m >= l {
			return nil, fmt.Errorf("core: member set %d contains slot %d >= L = %d", x, m, l)
		}
	}
	return nonSleeping(n, bitset.Transpose(sets, l))
}

// N returns the size of the node universe V_n.
func (s *Schedule) N() int { return s.n }

// L returns the frame length.
func (s *Schedule) L() int { return len(s.t) }

// T returns the transmitter set of slot i. The returned set must not be
// modified.
func (s *Schedule) T(i int) *bitset.Set { return s.t[i] }

// R returns the receiver set of slot i. The returned set must not be
// modified.
func (s *Schedule) R(i int) *bitset.Set { return s.r[i] }

// Tran returns tran(x): the set of slots in which node x may transmit.
// The returned set must not be modified.
func (s *Schedule) Tran(x int) *bitset.Set {
	tran, _ := s.views()
	return tran[x]
}

// Recv returns recv(x): the set of slots in which node x may receive.
// The returned set must not be modified.
func (s *Schedule) Recv(x int) *bitset.Set {
	_, recv := s.views()
	return recv[x]
}

// IsNonSleeping reports whether T[i] ∪ R[i] = V_n in every slot.
func (s *Schedule) IsNonSleeping() bool {
	for i := range s.t {
		if s.t[i].Count()+s.r[i].Count() != s.n {
			return false
		}
	}
	return true
}

// IsAlphaSchedule reports whether the schedule is an (αT, αR)-schedule:
// |T[i]| <= αT and |R[i]| <= αR in every slot.
func (s *Schedule) IsAlphaSchedule(alphaT, alphaR int) bool {
	for i := range s.t {
		if s.t[i].Count() > alphaT || s.r[i].Count() > alphaR {
			return false
		}
	}
	return true
}

// MinTransmitters returns min_i |T[i]| (the paper's M_in).
func (s *Schedule) MinTransmitters() int {
	m := -1
	for _, t := range s.t {
		if c := t.Count(); m < 0 || c < m {
			m = c
		}
	}
	return m
}

// MaxTransmitters returns max_i |T[i]| (the paper's M_ax).
func (s *Schedule) MaxTransmitters() int {
	m := 0
	for _, t := range s.t {
		if c := t.Count(); c > m {
			m = c
		}
	}
	return m
}

// MaxReceivers returns max_i |R[i]|.
func (s *Schedule) MaxReceivers() int {
	m := 0
	for _, r := range s.r {
		if c := r.Count(); c > m {
			m = c
		}
	}
	return m
}

// FreeSlots returns freeSlots(x, Y) = tran(x) - ∪_{y∈Y} tran(y): the slots
// in which x transmits and no node of Y does. Y must not contain x.
func (s *Schedule) FreeSlots(x int, y []int) *bitset.Set {
	tran, _ := s.views()
	fs := tran[x].Clone()
	for _, v := range y {
		if v == x {
			panic("core: FreeSlots with x ∈ Y")
		}
		fs.DifferenceWith(tran[v])
	}
	return fs
}

// Sigma returns σ(a, b) = tran(a) ∩ recv(b): the slots in which a
// transmission from a can be heard by b (collisions aside).
func (s *Schedule) Sigma(a, b int) *bitset.Set {
	tran, recv := s.views()
	return bitset.Intersect(tran[a], recv[b])
}

// TSlots returns 𝒯(x, y, S) = recv(y) ∩ freeSlots(x, {y} ∪ S): the slots in
// which a transmission from x to y is guaranteed to succeed when y's other
// neighbours are exactly S. Neither x nor y may appear in S.
func (s *Schedule) TSlots(x, y int, set []int) *bitset.Set {
	tran, recv := s.views()
	fs := tran[x].Clone()
	fs.DifferenceWith(tran[y])
	for _, v := range set {
		if v == x || v == y {
			panic("core: TSlots with x or y in S")
		}
		fs.DifferenceWith(tran[v])
	}
	fs.IntersectWith(recv[y])
	return fs
}

// ActiveFraction returns the average fraction of nodes active (transmitting
// or receiving) per slot: Σ_i (|T[i]| + |R[i]|) / (n·L). It is 1 exactly
// for non-sleeping schedules; lower values mean more sleep and hence less
// energy spent.
func (s *Schedule) ActiveFraction() float64 {
	active := 0
	for i := range s.t {
		active += s.t[i].Count() + s.r[i].Count()
	}
	return float64(active) / (float64(s.n) * float64(len(s.t)))
}

// DutyCycle returns the fraction of slots in which node x is active.
func (s *Schedule) DutyCycle(x int) float64 {
	tran, recv := s.views()
	return float64(tran[x].Count()+recv[x].Count()) / float64(len(s.t))
}

// Role describes what a node is scheduled to do in a slot.
type Role uint8

const (
	// Sleep: the radio is off.
	Sleep Role = iota
	// Transmit: the node may transmit.
	Transmit
	// Receive: the node may receive.
	Receive
)

func (r Role) String() string {
	switch r {
	case Sleep:
		return "sleep"
	case Transmit:
		return "transmit"
	case Receive:
		return "receive"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// RoleOf returns node x's role in slot i (taken modulo the frame length, so
// callers can pass absolute slot numbers).
func (s *Schedule) RoleOf(x, slot int) Role {
	i := slot % len(s.t)
	switch {
	case s.t[i].Contains(x):
		return Transmit
	case s.r[i].Contains(x):
		return Receive
	default:
		return Sleep
	}
}

// Clone returns a deep copy (useful for failure-injection tests that need a
// mutable schedule; the package itself never mutates a built Schedule).
func (s *Schedule) Clone() *Schedule {
	c, err := FromSets(s.n, s.t, s.r)
	if err != nil {
		panic("core: Clone of valid schedule failed: " + err.Error())
	}
	return c
}

// String renders a compact textual form of the schedule, one line per
// slot, built in a single pass into one buffer sized up front: each
// element takes at most len(n) digits plus its ", " separator, and 32
// bytes cover a line's fixed text.
func (s *Schedule) String() string {
	var b strings.Builder
	size, digits := 32, len(strconv.Itoa(s.n))
	for i := range s.t {
		size += 32 + (s.t[i].Count()+s.r[i].Count())*(digits+2)
	}
	b.Grow(size)
	b.WriteString("schedule n=")
	b.WriteString(strconv.Itoa(s.n))
	b.WriteString(" L=")
	b.WriteString(strconv.Itoa(len(s.t)))
	for i := range s.t {
		b.WriteString("\n  slot ")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(": T=")
		b.WriteString(s.t[i].String())
		b.WriteString(" R=")
		b.WriteString(s.r[i].String())
	}
	return b.String()
}
