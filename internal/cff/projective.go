package cff

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/gf"
)

// Projective planes PG(2, p) as cover-free families. The lines of a
// projective plane of order p form a Steiner system S(2, p+1, p²+p+1):
// v = p²+p+1 points, v lines of p+1 points each, any two lines meeting in
// exactly one point. Taking lines as member sets over the points, any D
// other lines cover at most D points of a given line, so the family is
// D-cover-free for every D <= p — extending the triple-system construction
// (p = 2 gives the Fano plane) to larger degree bounds with frame length
// v ≈ p², the same order as the polynomial construction but with exactly
// v member sets.
//
// The plane is built cyclically from a Singer perfect difference set:
// taking a primitive element g of GF(p³), the exponents i (mod v) whose
// field element has zero trace over GF(p) form a (v, p+1, 1) perfect
// difference set D; the lines are the v translates D + t (mod v).

// SingerDifferenceSet returns a (v, p+1, 1) perfect difference set modulo
// v = p²+p+1 for a prime p: a set of p+1 residues whose pairwise
// differences hit every nonzero residue exactly once.
func SingerDifferenceSet(p int) ([]int, error) {
	if !gf.IsPrime(p) {
		return nil, fmt.Errorf("cff: Singer construction needs prime p, got %d", p)
	}
	field, err := gf.New(p, 3)
	if err != nil {
		return nil, err
	}
	v := p*p + p + 1
	g := field.PrimitiveElement()
	// Trace over GF(p): Tr(x) = x + x^p + x^(p²). Zero-trace is constant on
	// cosets of GF(p)* (Tr is GF(p)-linear), so membership depends only on
	// i mod v.
	seen := make(map[int]bool)
	x := 1
	order := field.Q() - 1
	for i := 0; i < order; i++ {
		tr := field.Add(x, field.Add(field.Pow(x, p), field.Pow(x, p*p)))
		if tr == 0 {
			seen[i%v] = true
		}
		x = field.Mul(x, g)
	}
	ds := make([]int, 0, len(seen))
	for r := range seen {
		ds = append(ds, r)
	}
	sort.Ints(ds)
	if len(ds) != p+1 {
		return nil, fmt.Errorf("cff: Singer set for p=%d has %d elements, want %d", p, len(ds), p+1)
	}
	return ds, nil
}

// VerifyPerfectDifferenceSet checks that ds is a (v, k, 1) perfect
// difference set: all k(k-1) ordered pairwise differences are distinct and
// nonzero modulo v, and (with k(k-1) == v-1) therefore cover every nonzero
// residue exactly once.
func VerifyPerfectDifferenceSet(v int, ds []int) error {
	k := len(ds)
	if k*(k-1) != v-1 {
		return fmt.Errorf("cff: size %d wrong for perfect difference set mod %d", k, v)
	}
	seen := make(map[int]bool)
	for _, a := range ds {
		for _, b := range ds {
			if a == b {
				continue
			}
			d := ((a-b)%v + v) % v
			if d == 0 || seen[d] {
				return fmt.Errorf("cff: difference %d repeated or zero", d)
			}
			seen[d] = true
		}
	}
	return nil
}

// ProjectivePlane builds the n-member cover-free family whose member sets
// are lines of PG(2, p), for n <= p²+p+1. The family is D-cover-free for
// every D <= p, with ground set (frame length) v = p²+p+1 and every member
// set of size p+1.
func ProjectivePlane(n, p int) (*Family, error) {
	ds, err := SingerDifferenceSet(p)
	if err != nil {
		return nil, err
	}
	v := p*p + p + 1
	if n < 1 || n > v {
		return nil, fmt.Errorf("cff: projective plane of order %d supports up to %d member sets, asked %d", p, v, n)
	}
	sets := make([]*bitset.Set, n)
	for t := 0; t < n; t++ {
		s := bitset.New(v)
		for _, d := range ds {
			s.Add((d + t) % v)
		}
		sets[t] = s
	}
	return &Family{
		L:    v,
		Sets: sets,
		Name: fmt.Sprintf("projective(p=%d)", p),
	}, nil
}

// ProjectiveFor returns the smallest-order projective-plane family
// supporting n nodes at degree bound d (order ProjectiveOrderFor(n, d)).
func ProjectiveFor(n, d int) (*Family, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("cff: ProjectiveFor(%d, %d)", n, d)
	}
	return ProjectivePlane(n, ProjectiveOrderFor(n, d))
}

// ProjectiveOrderFor returns the least prime p >= max(d, 2) with
// p²+p+1 >= n: the order of the plane ProjectiveFor builds, whose frame
// length p²+p+1 is thus known before any line is laid out.
func ProjectiveOrderFor(n, d int) int {
	p := max(d, 2)
	for {
		p = gf.NextPrime(p)
		if p*p+p+1 >= n {
			return p
		}
		p++
	}
}
