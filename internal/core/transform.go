package core

import (
	"fmt"

	"repro/internal/bitset"
)

// Schedule transformations. Topology transparency is a property of the
// whole class N(n, D), so it is invariant under relabeling nodes and
// rotating or concatenating frames; these utilities let deployments assign
// node IDs, stagger frame phases, and time-multiplex schedules without
// re-verification. Each transformation documents which analysis quantities
// it preserves.

// PermuteNodes returns the schedule with node identities relabeled by perm:
// node x in the input becomes node perm[x] in the output. perm must be a
// permutation of [0, n). Topology transparency, all throughput figures,
// frame length, and per-slot counts are invariant (the network class is
// symmetric in node identities).
func PermuteNodes(s *Schedule, perm []int) (*Schedule, error) {
	n := s.n
	if len(perm) != n {
		return nil, fmt.Errorf("core: permutation has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("core: not a permutation of [0, %d)", n)
		}
		seen[p] = true
	}
	t := make([]*bitset.Set, s.L())
	r := make([]*bitset.Set, s.L())
	for i := 0; i < s.L(); i++ {
		t[i] = bitset.New(n)
		r[i] = bitset.New(n)
		s.t[i].ForEach(func(x int) bool {
			t[i].Add(perm[x])
			return true
		})
		s.r[i].ForEach(func(x int) bool {
			r[i].Add(perm[x])
			return true
		})
	}
	return fromOwnedSets(n, t, r)
}

// RotateSlots returns the schedule with the frame cyclically shifted so the
// input's slot k becomes the output's slot 0. All analysis quantities are
// invariant; deployments use this to stagger frame phase without touching
// guarantees.
func RotateSlots(s *Schedule, k int) *Schedule {
	L := s.L()
	k = ((k % L) + L) % L
	t := make([]*bitset.Set, L)
	r := make([]*bitset.Set, L)
	for i := 0; i < L; i++ {
		t[i] = s.t[(i+k)%L]
		r[i] = s.r[(i+k)%L]
	}
	out, err := FromSets(s.n, t, r)
	if err != nil {
		panic("core: RotateSlots of valid schedule failed: " + err.Error())
	}
	return out
}

// Concat returns the schedule that plays a's frame and then b's frame
// (frame length a.L() + b.L()). Both inputs must share the universe size.
// If either input is topology-transparent for N(n, D), so is the result
// (every guarantee of the TT half still occurs once per combined frame);
// throughputs are the length-weighted means of the inputs', which the
// Theorem 2 closed form makes exact.
func Concat(a, b *Schedule) (*Schedule, error) {
	if a.n != b.n {
		return nil, fmt.Errorf("core: Concat universe mismatch %d != %d", a.n, b.n)
	}
	t := make([]*bitset.Set, 0, a.L()+b.L())
	r := make([]*bitset.Set, 0, a.L()+b.L())
	t = append(t, a.t...)
	t = append(t, b.t...)
	r = append(r, a.r...)
	r = append(r, b.r...)
	return FromSets(a.n, t, r)
}

// Repeat returns the schedule whose frame is s's frame played k times.
// Analysis quantities are invariant (every per-frame guarantee appears k
// times in a frame k times as long). Useful for aligning frame lengths
// before Concat.
func Repeat(s *Schedule, k int) (*Schedule, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: Repeat count %d < 1", k)
	}
	t := make([]*bitset.Set, 0, k*s.L())
	r := make([]*bitset.Set, 0, k*s.L())
	for j := 0; j < k; j++ {
		t = append(t, s.t...)
		r = append(r, s.r...)
	}
	return FromSets(s.n, t, r)
}

// Restrict returns the schedule over the first m nodes only: nodes >= m are
// removed from every slot set. If the input is topology-transparent for
// N(n, D) then the restriction is topology-transparent for N(m, D) as long
// as m > D (dropping potential interferers can only help every surviving
// link; dropping receivers only removes guarantees toward removed nodes).
func Restrict(s *Schedule, m int) (*Schedule, error) {
	if m < 1 || m > s.n {
		return nil, fmt.Errorf("core: Restrict to %d nodes outside [1, %d]", m, s.n)
	}
	t := make([]*bitset.Set, s.L())
	r := make([]*bitset.Set, s.L())
	for i := 0; i < s.L(); i++ {
		t[i] = bitset.New(m)
		r[i] = bitset.New(m)
		s.t[i].ForEach(func(x int) bool {
			if x < m {
				t[i].Add(x)
			}
			return true
		})
		s.r[i].ForEach(func(x int) bool {
			if x < m {
				r[i].Add(x)
			}
			return true
		})
	}
	return fromOwnedSets(m, t, r)
}
