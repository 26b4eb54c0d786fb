package cff

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/gf"
)

// PolynomialParams holds the parameters of the orthogonal-array (polynomial)
// construction: node codewords are polynomials of degree at most K over
// GF(Q), and the frame has Q subframes of Q slots (L = Q²).
type PolynomialParams struct {
	// Q is the field order (a prime power).
	Q int
	// K is the maximum polynomial degree.
	K int
	// N is the number of supported nodes, Q^(K+1).
	N int
	// D is the largest node degree for which the family is D-cover-free,
	// floor((Q-1)/K).
	D int
}

// FrameLength returns the ground-set size Q².
func (p PolynomialParams) FrameLength() int { return p.Q * p.Q }

// FindPolynomialParams returns the parameters with the smallest frame length
// L = q² such that the polynomial construction supports at least n nodes and
// is D-cover-free, i.e. q is a prime power with q^(k+1) >= n and kD < q for
// some degree k >= 1. It returns an error for invalid inputs (n < 2 or
// D < 1).
//
// The search is exact: frame length grows with q only, so the smallest
// feasible prime power q is optimal within this construction; k is then the
// smallest degree accommodating n nodes.
func FindPolynomialParams(n, d int) (PolynomialParams, error) {
	if n < 2 {
		return PolynomialParams{}, fmt.Errorf("cff: polynomial params need n >= 2, got %d", n)
	}
	if d < 1 {
		return PolynomialParams{}, fmt.Errorf("cff: polynomial params need D >= 1, got %d", d)
	}
	for q := 2; ; q = gf.NextPrimePower(q + 1) {
		q = gf.NextPrimePower(q)
		// Largest degree that keeps the family D-cover-free: kD <= q-1.
		kMax := (q - 1) / d
		if kMax < 1 {
			continue
		}
		// Smallest k with q^(k+1) >= n.
		cap := q
		for k := 1; k <= kMax; k++ {
			if cap > (1<<40)/q {
				// q^(k+1) overflow guard; such capacity is far beyond need.
				return PolynomialParams{Q: q, K: k, N: 1 << 40, D: (q - 1) / k}, nil
			}
			cap *= q
			if cap >= n {
				return PolynomialParams{Q: q, K: k, N: cap, D: (q - 1) / k}, nil
			}
		}
	}
}

// Polynomial builds the orthogonal-array family for the given parameters.
// Node x in [0, n) is assigned the polynomial whose coefficients are the
// base-q digits of x; its member set is {q*j + f_x(e_j) : j in [0, q)}
// where e_j is the j-th field element. Distinct polynomials of degree <= k
// agree on at most k points, so any D <= (q-1)/k other nodes cover at most
// kD < q of a node's q slots: the family is D-cover-free with every member
// set of size exactly q.
func Polynomial(n int, p PolynomialParams) (*Family, error) {
	if n < 1 || n > p.N {
		return nil, fmt.Errorf("cff: polynomial family supports up to %d nodes, asked %d", p.N, n)
	}
	field, err := gf.NewOrder(p.Q)
	if err != nil {
		return nil, fmt.Errorf("cff: bad field order %d: %w", p.Q, err)
	}
	// Horner's rule splits off the constant coefficient: with x = q·y + c,
	// f_x(e) = c + e·f_y(e). Row y of vals holds f_y at every field
	// element, and y < x for x >= 1, so each value is one table Mul and
	// one field Add on a row already computed. Only rows y < ⌈n/q⌉ are
	// ever parents.
	tables := gf.NewTables(field)
	q := p.Q
	L := q * q
	parents := (n + q - 1) / q
	vals := make([]int, parents*q)
	sets := make([]*bitset.Set, n)
	for x := 0; x < n; x++ {
		parent := vals[(x/q)*q : (x/q+1)*q]
		s := bitset.New(L)
		for j, fy := range parent {
			v := field.Add(x%q, tables.Mul(j, fy))
			if x < parents {
				vals[x*q+j] = v
			}
			s.Add(q*j + v)
		}
		sets[x] = s
	}
	return &Family{
		L:    L,
		Sets: sets,
		Name: fmt.Sprintf("polynomial(q=%d,k=%d)", p.Q, p.K),
	}, nil
}

// PolynomialFor is a convenience that finds parameters for (n, D) and builds
// the family for exactly n nodes.
func PolynomialFor(n, d int) (*Family, error) {
	p, err := FindPolynomialParams(n, d)
	if err != nil {
		return nil, err
	}
	return Polynomial(n, p)
}
