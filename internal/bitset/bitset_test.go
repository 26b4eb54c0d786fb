package bitset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatalf("Min/Max of empty set = %d/%d, want -1/-1", s.Min(), s.Max())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("!Contains(%d) after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after double Remove = %d, want 7", got)
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		// A recovered panic is reported with %v (the engine journals it
		// so), which must read the same as the message it always had.
		p := recover()
		if p == nil {
			t.Fatal("Add out of range did not panic")
		}
		if got, want := fmt.Sprintf("%v", p), "bitset: element 10 out of range [0,10)"; got != want {
			t.Fatalf("panic value reads %q, want %q", got, want)
		}
	}()
	New(10).Add(10)
}

func TestContainsOutOfRangeIsFalse(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("out-of-range Contains should be false")
	}
}

func TestFromSliceElements(t *testing.T) {
	in := []int{5, 3, 99, 0, 64}
	s := FromSlice(100, in)
	sort.Ints(in)
	if got := s.Elements(); !reflect.DeepEqual(got, in) {
		t.Fatalf("Elements = %v, want %v", got, in)
	}
}

func TestMinMax(t *testing.T) {
	s := FromSlice(200, []int{17, 130, 64, 5})
	if s.Min() != 5 {
		t.Fatalf("Min = %d, want 5", s.Min())
	}
	if s.Max() != 130 {
		t.Fatalf("Max = %d, want 130", s.Max())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(128, []int{1, 2, 3, 70})
	b := FromSlice(128, []int{3, 4, 70, 100})

	if got := Union(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 70, 100}) {
		t.Fatalf("Union = %v", got)
	}
	if got := Intersect(a, b).Elements(); !reflect.DeepEqual(got, []int{3, 70}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := Difference(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Difference = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false, want true")
	}
	if a.SubsetOf(b) {
		t.Fatal("SubsetOf = true, want false")
	}
	if !Intersect(a, b).SubsetOf(a) {
		t.Fatal("a∩b should be subset of a")
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if got := a.DifferenceCount(b); got != 2 {
		t.Fatalf("DifferenceCount = %d, want 2", got)
	}
}

func TestMixedCapacities(t *testing.T) {
	small := FromSlice(10, []int{1, 2})
	big := FromSlice(1000, []int{2, 3, 999})

	u := Union(small, big)
	if got := u.Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 999}) {
		t.Fatalf("Union mixed caps = %v", got)
	}
	if small.Equal(big) {
		t.Fatal("Equal across caps should be false here")
	}
	s2 := FromSlice(10, []int{2, 3})
	b2 := FromSlice(1000, []int{2, 3})
	if !s2.Equal(b2) || !b2.Equal(s2) {
		t.Fatal("Equal should ignore trailing zero capacity")
	}
	if !s2.SubsetOf(big) {
		t.Fatal("small {2,3} should be subset of big {2,3,999}")
	}
	if big.SubsetOf(s2) {
		t.Fatal("big should not be subset of small")
	}
	if got := big.DifferenceCount(s2); got != 1 {
		t.Fatalf("DifferenceCount = %d, want 1", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(64, []int{1, 2, 3})
	b := FromSlice(64, []int{3, 4})

	c := a.Clone()
	c.UnionWith(b)
	if got := c.Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("UnionWith = %v", got)
	}
	c = a.Clone()
	c.IntersectWith(b)
	if got := c.Elements(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("IntersectWith = %v", got)
	}
	c = a.Clone()
	c.DifferenceWith(b)
	if got := c.Elements(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("DifferenceWith = %v", got)
	}
	// Original untouched.
	if got := a.Elements(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("a mutated: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(64, []int{1})
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCopy(t *testing.T) {
	a := FromSlice(64, []int{1, 5})
	b := New(64)
	b.Copy(a)
	if !b.Equal(a) {
		t.Fatal("Copy mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Copy across capacities should panic")
		}
	}()
	New(10).Copy(a)
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(64, []int{1, 2, 3, 4})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestClear(t *testing.T) {
	s := FromSlice(64, []int{1, 2, 3})
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear did not empty the set")
	}
	if s.Cap() != 64 {
		t.Fatal("Clear changed capacity")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{3, 1}).String(); got != "{1, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("String empty = %q", got)
	}
}

// randomSet builds a random subset of [0, n) using r.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

// Property-based tests: classic set-algebra laws over random sets.

func TestQuickDeMorgan(t *testing.T) {
	// |a ∪ b| + |a ∩ b| == |a| + |b|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := randomSet(r, n), randomSet(r, n)
		return Union(a, b).Count()+Intersect(a, b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferencePartition(t *testing.T) {
	// a = (a\b) ⊎ (a∩b), disjointly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := randomSet(r, n), randomSet(r, n)
		d := Difference(a, b)
		i := Intersect(a, b)
		if d.Intersects(i) {
			return false
		}
		return Union(d, i).Equal(a) && d.Count()+i.Count() == a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountsMatchAllocFree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := randomSet(r, n), randomSet(r, n)
		if a.IntersectionCount(b) != Intersect(a, b).Count() {
			return false
		}
		if a.DifferenceCount(b) != Difference(a, b).Count() {
			return false
		}
		if a.Intersects(b) != (Intersect(a, b).Count() > 0) {
			return false
		}
		return a.SubsetOf(b) == Difference(a, b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyThenDifference(t *testing.T) {
	a := FromSlice(130, []int{0, 5, 64, 100, 129})
	b := FromSlice(130, []int{5, 100})
	dst := New(130)
	dst.Add(7) // stale content must be overwritten
	if dst.CopyThenDifference(a, b) {
		t.Fatal("non-empty difference reported empty")
	}
	if !dst.Equal(Difference(a, b)) {
		t.Fatalf("CopyThenDifference = %v, want %v", dst, Difference(a, b))
	}
	if dst.Contains(7) {
		t.Fatal("stale element survived")
	}
	// Shorter operand b: the tail of a must be copied through.
	short := FromSlice(10, []int{0})
	if dst.CopyThenDifference(a, short) {
		t.Fatal("reported empty")
	}
	if !dst.Equal(Difference(a, short)) {
		t.Fatalf("short-operand difference = %v", dst)
	}
	// Empty result is reported.
	if !dst.CopyThenDifference(a, a.Clone()) {
		t.Fatal("a \\ a not reported empty")
	}
	if !dst.Empty() {
		t.Fatal("a \\ a not empty")
	}
}

func TestCopyThenDifferenceCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch accepted")
		}
	}()
	New(10).CopyThenDifference(New(20), New(20))
}

func TestQuickCopyThenDifference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := randomSet(r, n), randomSet(r, n)
		dst := New(n)
		empty := dst.CopyThenDifference(a, b)
		return dst.Equal(Difference(a, b)) && empty == dst.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferenceIntersectionCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b, m := randomSet(r, n), randomSet(r, n), randomSet(r, n)
		want := Intersect(Difference(a, b), m).Count()
		if a.DifferenceIntersectionCount(b, m) != want {
			return false
		}
		// Shorter operands behave as zero-padded.
		bs := randomSet(r, 1+r.Intn(n))
		ms := randomSet(r, 1+r.Intn(n))
		return a.DifferenceIntersectionCount(bs, ms) == Intersect(Difference(a, bs), ms).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordsViewMatchesElements(t *testing.T) {
	s := FromSlice(130, []int{0, 63, 64, 129})
	w := s.Words()
	if len(w) != 3 {
		t.Fatalf("words = %d, want 3", len(w))
	}
	if w[0] != 1|1<<63 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("words = %#x", w)
	}
}

func TestQuickElementsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomSet(r, n)
		return FromSlice(n, a.Elements()).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 4096)
	y := randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkForEach(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 4096)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(e int) bool { sum += e; return true })
	}
	_ = sum
}

// transposeRef is the bit-by-bit reference for Transpose.
func transposeRef(rows []*Set, cols int) []*Set {
	out := make([]*Set, cols)
	for j := range out {
		out[j] = New(len(rows))
	}
	for i, r := range rows {
		r.ForEach(func(j int) bool {
			if j < cols {
				out[j].Add(i)
			}
			return true
		})
	}
	return out
}

func checkTranspose(t *testing.T, name string, rows []*Set, cols int) {
	t.Helper()
	got, want := Transpose(rows, cols), transposeRef(rows, cols)
	if len(got) != cols {
		t.Fatalf("%s: %d sets, want %d", name, len(got), cols)
	}
	for j := range want {
		if got[j].Cap() != len(rows) || !got[j].Equal(want[j]) {
			t.Fatalf("%s: set %d = %v (cap %d), want %v (cap %d)",
				name, j, got[j], got[j].Cap(), want[j], len(rows))
		}
	}
}

func TestTransposeMatchesBitByBit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 63, 64, 65, 130}
	fills := map[string]func(n int) *Set{
		"zero": New,
		"one": func(n int) *Set {
			s := New(n)
			for i := 0; i < n; i++ {
				s.Add(i)
			}
			return s
		},
		"random": func(n int) *Set { return randomSet(r, n) },
	}
	for _, fill := range []string{"zero", "one", "random"} {
		for _, nrows := range sizes {
			for _, cols := range sizes {
				rows := make([]*Set, nrows)
				for i := range rows {
					rows[i] = fills[fill](cols)
				}
				checkTranspose(t, fmt.Sprintf("%s %dx%d", fill, nrows, cols), rows, cols)
			}
		}
	}
}

func TestTransposeUnevenRows(t *testing.T) {
	// Rows shorter than cols read as zero-padded; elements at or beyond
	// cols are dropped; a row may repeat.
	r := rand.New(rand.NewSource(11))
	short, long := randomSet(r, 40), randomSet(r, 200)
	long.Add(199)
	rows := []*Set{short, long, New(0), long, randomSet(r, 130)}
	for _, cols := range []int{0, 39, 64, 100, 130, 199, 200, 260} {
		checkTranspose(t, fmt.Sprintf("uneven x%d", cols), rows, cols)
	}
}

func TestTransposeViewsAreSeparate(t *testing.T) {
	rows := make([]*Set, 70)
	for i := range rows {
		rows[i] = New(3)
	}
	out := Transpose(rows, 3)
	for j, s := range out {
		if w := s.Words(); len(w) != 2 || cap(w) != len(w) {
			t.Fatalf("set %d: len %d cap %d, want a full 2-word slice", j, len(w), cap(w))
		}
	}
	out[1].Add(69)
	out[1].Add(0)
	if !out[0].Empty() || !out[2].Empty() || out[1].Count() != 2 {
		t.Fatalf("writing set 1 reached its neighbours: %v %v %v", out[0], out[1], out[2])
	}
}

// TestTransposeWindowMatchesBitByBit checks TransposeWindow against a
// bit-by-bit reference for windows of 0, 1, 63 and 64 rows over 0, 1, 63,
// 64, 65 and 130 columns, with rows that end before, at and beyond the
// last column and a destination holding stale words. It then reads a
// 130-row matrix in windows of 64, 64 and 2 rows, the last one short, and
// requires each window to give the matching word of Transpose.
func TestTransposeWindowMatchesBitByBit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	full := func(n int) *Set {
		s := New(n)
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		return s
	}
	for _, fill := range []string{"one", "random"} {
		for _, nrows := range []int{0, 1, 63, 64} {
			for _, cols := range []int{0, 1, 63, 64, 65, 130} {
				rows := make([]*Set, nrows)
				for i := range rows {
					capacity := []int{40, cols, 200}[i%3]
					if fill == "one" {
						rows[i] = full(capacity)
					} else {
						rows[i] = randomSet(r, capacity)
					}
				}
				dst := make([]uint64, cols)
				for j := range dst {
					dst[j] = ^uint64(0)
				}
				TransposeWindow(rows, dst)
				for j := range dst {
					want := uint64(0)
					for k, row := range rows {
						if row.Contains(j) {
							want |= 1 << uint(k)
						}
					}
					if dst[j] != want {
						t.Fatalf("%s %dx%d: column %d = %#x, want %#x", fill, nrows, cols, j, dst[j], want)
					}
				}
			}
		}
	}
	rows := make([]*Set, 130)
	for i := range rows {
		rows[i] = randomSet(r, 130)
	}
	want := Transpose(rows, 130)
	dst := make([]uint64, 130)
	for lo := 0; lo < len(rows); lo += 64 {
		TransposeWindow(rows[lo:min(lo+64, len(rows))], dst)
		for j := range dst {
			if w := want[j].Words()[lo/64]; dst[j] != w {
				t.Fatalf("window at row %d: column %d = %#x, Transpose has %#x", lo, j, dst[j], w)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TransposeWindow of 65 rows did not panic")
		}
	}()
	TransposeWindow(rows[:65], dst)
}

func BenchmarkTranspose(b *testing.B) {
	// About the shape of a campaign schedule's per-slot sets: 2048 slots
	// over 8192 nodes, a quarter of them set.
	r := rand.New(rand.NewSource(1))
	rows := make([]*Set, 2048)
	for i := range rows {
		rows[i] = New(8192)
		for k := 0; k < 2048; k++ {
			rows[i].Add(r.Intn(8192))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(rows, 8192)
	}
}

// TestWindowMatchesBitByBit checks Window against a bit-by-bit filter at
// every word-boundary endpoint, including empty windows (lo == hi), on a
// full set and on a random one, for capacities with a partial last word
// and an exact multiple of 64.
func TestWindowMatchesBitByBit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, capacity := range []int{130, 192} {
		full, random := New(capacity), New(capacity)
		for i := 0; i < capacity; i++ {
			full.Add(i)
			if r.Intn(3) == 0 {
				random.Add(i)
			}
		}
		ends := []int{0, 63, 64, 65, capacity - 1, capacity}
		for _, s := range []*Set{full, random} {
			for _, lo := range ends {
				for _, hi := range ends {
					if lo > hi {
						continue
					}
					want := New(capacity)
					for i := lo; i < hi; i++ {
						if s.Contains(i) {
							want.Add(i)
						}
					}
					got := s.Window(lo, hi)
					if got.Cap() != capacity || !reflect.DeepEqual(got.Words(), want.Words()) {
						t.Fatalf("cap %d: Window(%d, %d) of %v = %v, want %v", capacity, lo, hi, s, got, want)
					}
				}
			}
		}
	}
	for _, bad := range [][2]int{{-1, 3}, {5, 4}, {0, 131}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window(%d, %d) on capacity 130 did not panic", bad[0], bad[1])
				}
			}()
			New(130).Window(bad[0], bad[1])
		}()
	}
}

// TestSelectMatchesElements checks Select bit by bit against Elements at
// every rank, -1 and one past the last rank. The sets put ranks 0, 63 and
// 64 and the last rank on word edges: a full set, an empty one, full words
// around an empty one, single elements at 63, 64 and cap-1, and a random
// fill, each at a capacity with a partial last word and at a multiple of
// 64.
func TestSelectMatchesElements(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, capacity := range []int{130, 192} {
		full, gap, random := New(capacity), New(capacity), New(capacity)
		for i := 0; i < capacity; i++ {
			full.Add(i)
			if i < 64 || i >= 128 {
				gap.Add(i)
			}
			if r.Intn(3) == 0 {
				random.Add(i)
			}
		}
		sets := []*Set{full, New(capacity), gap, random,
			FromSlice(capacity, []int{63}), FromSlice(capacity, []int{64}), FromSlice(capacity, []int{capacity - 1})}
		for _, s := range sets {
			elems := s.Elements()
			for rank := -1; rank <= len(elems); rank++ {
				want := -1
				if rank >= 0 && rank < len(elems) {
					want = elems[rank]
				}
				if got := s.Select(rank); got != want {
					t.Fatalf("cap %d: Select(%d) of %v = %d, want %d", capacity, rank, s, got, want)
				}
			}
		}
	}
}

// TestCountDisjointMatchesCounts holds the fused census pass to Count,
// Count and Intersects on random pairs of sets, disjoint and not, across
// capacities that differ in their word counts.
func TestCountDisjointMatchesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	caps := []int{0, 1, 63, 64, 65, 130}
	for _, ca := range caps {
		for _, cb := range caps {
			for trial := 0; trial < 20; trial++ {
				a, b := New(ca), New(cb)
				for i := 0; i < ca; i++ {
					if r.Intn(3) == 0 {
						a.Add(i)
					}
				}
				for i := 0; i < cb; i++ {
					if r.Intn(3) == 0 && (trial%2 == 0 || !a.Contains(i)) {
						b.Add(i)
					}
				}
				cs, co, disjoint := a.CountDisjoint(b)
				if cs != a.Count() || co != b.Count() || disjoint == a.Intersects(b) {
					t.Fatalf("CountDisjoint(%v, %v) = %d, %d, %v; want %d, %d, %v",
						a, b, cs, co, disjoint, a.Count(), b.Count(), !a.Intersects(b))
				}
			}
		}
	}
}
