package gf

import (
	"reflect"
	"testing"
)

func TestPrimeFactors(t *testing.T) {
	cases := map[int][]int{
		1: nil, 2: {2}, 12: {2, 3}, 30: {2, 3, 5}, 49: {7}, 97: {97},
		360: {2, 3, 5},
	}
	for n, want := range cases {
		if got := primeFactors(n); !reflect.DeepEqual(got, want) {
			t.Errorf("primeFactors(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPrimitiveElementOrder(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7, 8, 9, 11, 16, 25, 27, 49} {
		f, err := NewOrder(q)
		if err != nil {
			t.Fatal(err)
		}
		g := f.PrimitiveElement()
		// g generates all q-1 nonzero elements.
		seen := map[int]bool{}
		v := 1
		for i := 0; i < q-1; i++ {
			if seen[v] {
				t.Fatalf("GF(%d): generator %d has order < %d", q, g, q-1)
			}
			seen[v] = true
			v = f.Mul(v, g)
		}
		if v != 1 {
			t.Fatalf("GF(%d): generator %d order wrong", q, g)
		}
		if len(seen) != q-1 {
			t.Fatalf("GF(%d): generator %d covered %d elements", q, g, len(seen))
		}
	}
}

func TestTablesMatchField(t *testing.T) {
	for _, q := range []int{3, 4, 8, 9, 16, 25, 27} {
		f, err := NewOrder(q)
		if err != nil {
			t.Fatal(err)
		}
		tb := NewTables(f)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if tb.Mul(a, b) != f.Mul(a, b) {
					t.Fatalf("GF(%d): Mul(%d,%d) mismatch", q, a, b)
				}
				if b != 0 && tb.Div(a, b) != f.Div(a, b) {
					t.Fatalf("GF(%d): Div(%d,%d) mismatch", q, a, b)
				}
			}
			if a != 0 && tb.Inv(a) != f.Inv(a) {
				t.Fatalf("GF(%d): Inv(%d) mismatch", q, a)
			}
			for e := 0; e < 7; e++ {
				if tb.Pow(a, e) != f.Pow(a, e) {
					t.Fatalf("GF(%d): Pow(%d,%d) mismatch", q, a, e)
				}
			}
		}
	}
}

func TestTablesPanics(t *testing.T) {
	f, _ := NewOrder(5)
	tb := NewTables(f)
	for name, fn := range map[string]func(){
		"Inv(0)":   func() { tb.Inv(0) },
		"Div(1,0)": func() { tb.Div(1, 0) },
		"Pow(-1)":  func() { tb.Pow(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTablesGF2(t *testing.T) {
	f, _ := NewOrder(2)
	tb := NewTables(f)
	if tb.Generator() != 1 {
		t.Fatalf("GF(2) generator = %d", tb.Generator())
	}
	if tb.Mul(1, 1) != 1 || tb.Mul(0, 1) != 0 {
		t.Fatal("GF(2) table multiplication wrong")
	}
}

func BenchmarkFieldMulGF27(b *testing.B) {
	f, _ := NewOrder(27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(i%27, (i+11)%27)
	}
}

func BenchmarkTablesMulGF27(b *testing.B) {
	f, _ := NewOrder(27)
	tb := NewTables(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Mul(i%27, (i+11)%27)
	}
}
