package gf

import "fmt"

// Exp/log tables. The multiplicative group of GF(q) is cyclic; fixing a
// generator g, every nonzero element is g^i for a unique i in [0, q-1).
// Precomputing g^i (exp) and its inverse (log) turns multiplication,
// division and inversion into integer additions modulo q-1 — the classical
// fast path for repeated polynomial evaluation in the schedule
// constructions.

// PrimitiveElement returns a generator of GF(q)'s multiplicative group,
// found by checking each candidate's order against the prime factors of
// q-1 (a is a generator iff a^((q-1)/p) != 1 for every prime p | q-1).
func (f *Field) PrimitiveElement() int {
	order := f.q - 1
	if order == 1 {
		// GF(2): the group is trivial; 1 generates it.
		return 1
	}
	factors := primeFactors(order)
	for a := 2; a < f.q; a++ {
		ok := true
		for _, p := range factors {
			if f.Pow(a, order/p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
	}
	panic(fmt.Sprintf("gf: no primitive element in GF(%d); field arithmetic broken", f.q))
}

// primeFactors returns the distinct prime factors of n >= 1 in increasing
// order.
func primeFactors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// Tables holds exp/log tables over a fixed generator, giving O(1)
// multiplication without polynomial reduction. Build once per field; safe
// for concurrent use.
type Tables struct {
	f   *Field
	gen int
	exp []int // exp[i] = g^i, i in [0, 2(q-1)) doubled to skip a mod
	log []int // log[a] = i with g^i = a; log[0] unused (-1)
}

// NewTables builds exp/log tables for the field.
func NewTables(f *Field) *Tables {
	q := f.Q()
	t := &Tables{
		f:   f,
		gen: f.PrimitiveElement(),
		exp: make([]int, 2*(q-1)),
		log: make([]int, q),
	}
	t.log[0] = -1
	v := 1
	for i := 0; i < q-1; i++ {
		t.exp[i] = v
		t.exp[i+q-1] = v
		t.log[v] = i
		v = f.Mul(v, t.gen)
	}
	if v != 1 {
		panic("gf: generator order mismatch; field arithmetic broken")
	}
	return t
}

// Generator returns the generator the tables are built on.
func (t *Tables) Generator() int { return t.gen }

// Mul returns a*b via table lookups.
func (t *Tables) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return t.exp[t.log[a]+t.log[b]]
}

// Inv returns the multiplicative inverse of a; it panics for a == 0.
func (t *Tables) Inv(a int) int {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return t.exp[(t.f.Q()-1)-t.log[a]]
}

// Div returns a/b; it panics for b == 0.
func (t *Tables) Div(a, b int) int {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return t.exp[t.log[a]-t.log[b]+(t.f.Q()-1)]
}

// Pow returns a^e for e >= 0 via the tables.
func (t *Tables) Pow(a, e int) int {
	if e < 0 {
		panic("gf: negative exponent")
	}
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	return t.exp[(t.log[a]*e)%(t.f.Q()-1)]
}
