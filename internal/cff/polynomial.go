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
	if err := p.checkNodes(n); err != nil {
		return nil, err
	}
	sets := make([]*bitset.Set, n)
	for x := range sets {
		sets[x] = bitset.New(p.FrameLength())
	}
	err := evalPolynomials(n, p, func(y, j int, row []int) {
		for c, v := range row {
			sets[p.Q*y+c].Add(p.Q*j + v)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Family{
		L:    p.FrameLength(),
		Sets: sets,
		Name: fmt.Sprintf("polynomial(q=%d,k=%d)", p.Q, p.K),
	}, nil
}

// PolynomialSlots returns the transmitter slot sets of the polynomial
// family's non-sleeping schedule, each over the node universe [0, n): slot
// q*j + v holds the nodes x with f_x(e_j) = v. They are the transpose of
// Polynomial's member sets, written straight from the same evaluation, so
// a schedule built from them builds no member set and no transpose.
func PolynomialSlots(n int, p PolynomialParams) ([]*bitset.Set, error) {
	if err := p.checkNodes(n); err != nil {
		return nil, err
	}
	slots := make([]*bitset.Set, p.FrameLength())
	for i := range slots {
		slots[i] = bitset.New(n)
	}
	err := evalPolynomials(n, p, func(y, j int, row []int) {
		for c, v := range row {
			slots[p.Q*j+v].Add(p.Q*y + c)
		}
	})
	if err != nil {
		return nil, err
	}
	return slots, nil
}

// checkNodes reports an error unless the family supports n nodes.
func (p PolynomialParams) checkNodes(n int) error {
	if n < 1 || n > p.N {
		return fmt.Errorf("cff: polynomial family supports up to %d nodes, asked %d", p.N, n)
	}
	return nil
}

// evalPolynomials evaluates the polynomial of every node x in [0, n) at
// every field element by Horner's rule, one element e_j at a time. With
// x = q·y + c, f_x(e_j) = c + e_j·f_y(e_j), and y < x for x >= 1, so at
// each e_j it keeps f_y(e_j) for the parents y < ⌈n/q⌉ only. At each
// (j, y) one table multiplication gives m = e_j·f_y(e_j), and the q
// children of y take the values of row m of GF(q)'s addition table:
// emit(y, j, row) receives that row cut to the children below n, child
// c's value being row[c]. Calls come j by j, so a slot-major writer
// touches one subframe's q slot sets at a time. n must pass p.checkNodes.
func evalPolynomials(n int, p PolynomialParams, emit func(y, j int, row []int)) error {
	field, err := gf.NewOrder(p.Q)
	if err != nil {
		return fmt.Errorf("cff: bad field order %d: %w", p.Q, err)
	}
	tables := gf.NewTables(field)
	q := p.Q
	add := make([]int, q*q)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			add[a*q+b] = field.Add(a, b)
		}
	}
	// vals[y] = f_y(e_j) at the current j. Each parent y >= 1 is written
	// as a child of ⌊y/q⌋ < y before it is read, and f_0 = 0 at every j.
	vals := make([]int, (n+q-1)/q)
	for j := 0; j < q; j++ {
		for y := range vals {
			children := min(q, n-q*y)
			m := tables.Mul(j, vals[y])
			row := add[m*q : m*q+children]
			for c := 0; c < children && q*y+c < len(vals); c++ {
				vals[q*y+c] = row[c]
			}
			emit(y, j, row)
		}
	}
	return nil
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
