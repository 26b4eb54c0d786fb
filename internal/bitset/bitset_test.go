package bitset

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cpufeat"
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

// withTransposeKernel runs f with the transpose kernel switched on or off,
// then restores the switch.
func withTransposeKernel(on bool, f func()) {
	defer func(was bool) { cpufeat.TransposeKernel = was }(cpufeat.TransposeKernel)
	cpufeat.TransposeKernel = on
	f()
}

// onTransposePaths runs check once per transpose path this host has, as
// the subtests goloop and, where the CPU has AVX-512F, AVX-512VBMI and
// GFNI, kernel.
func onTransposePaths(t *testing.T, check func(t *testing.T)) {
	t.Run("goloop", func(t *testing.T) { withTransposeKernel(false, func() { check(t) }) })
	if cpufeat.TransposeKernel {
		t.Run("kernel", check)
	}
}

func TestTransposeMatchesBitByBit(t *testing.T) {
	onTransposePaths(t, func(t *testing.T) {
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
	})
}

func TestTransposeUnevenRows(t *testing.T) {
	onTransposePaths(t, func(t *testing.T) {
		// Rows shorter than cols read as zero-padded; elements at or beyond
		// cols are dropped; a row may repeat.
		r := rand.New(rand.NewSource(11))
		short, long := randomSet(r, 40), randomSet(r, 200)
		long.Add(199)
		rows := []*Set{short, long, New(0), long, randomSet(r, 130)}
		for _, cols := range []int{0, 39, 64, 100, 130, 199, 200, 260} {
			checkTranspose(t, fmt.Sprintf("uneven x%d", cols), rows, cols)
		}
	})
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

// checkTransposeWindow transposes rows into cols words that hold stale
// bits and holds them to a bit-by-bit reference: bit k of word j is set
// when rows[k] contains j.
func checkTransposeWindow(t *testing.T, name string, rows []*Set, cols int) {
	t.Helper()
	dst, want := make([]uint64, cols), make([]uint64, cols)
	for j := range dst {
		dst[j] = ^uint64(0)
	}
	for k, row := range rows {
		row.ForEach(func(j int) bool {
			if j < cols {
				want[j] |= 1 << uint(k)
			}
			return true
		})
	}
	TransposeWindow(rows, dst)
	for j, w := range want {
		if dst[j] != w {
			t.Fatalf("%s: column %d = %#x, want %#x", name, j, dst[j], w)
		}
	}
}

// TestTransposeWindowMatchesBitByBit checks TransposeWindow against a
// bit-by-bit reference into destinations holding stale words. Windows of
// 0, 1, 63 and 64 rows over 0, 1, 63, 64, 65 and 130 columns mix rows
// that end before, at and beyond the last column. Windows of 1, 7, 8, 9,
// 63 and 64 rows over 64, 128, 130 and 8,500 columns have every row as
// long as dst, as a schedule's slot sets are, so the kernel path runs
// every whole block in its leaf, with the row counts on both sides of a
// gather group's edge. It then reads a 130-row matrix in windows of 64,
// 64 and 2 rows, the last one short, and requires each window to give
// the matching word of Transpose.
func TestTransposeWindowMatchesBitByBit(t *testing.T) {
	onTransposePaths(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		fills := map[string]func(n int) *Set{
			"one": func(n int) *Set {
				s := New(n)
				for i := 0; i < n; i++ {
					s.Add(i)
				}
				return s
			},
			"random": func(n int) *Set { return randomSet(r, n) },
		}
		for _, fill := range []string{"one", "random"} {
			for _, nrows := range []int{0, 1, 63, 64} {
				for _, cols := range []int{0, 1, 63, 64, 65, 130} {
					rows := make([]*Set, nrows)
					for i := range rows {
						rows[i] = fills[fill]([]int{40, cols, 200}[i%3])
					}
					checkTransposeWindow(t, fmt.Sprintf("%s %dx%d", fill, nrows, cols), rows, cols)
				}
			}
			for _, nrows := range []int{1, 7, 8, 9, 63, 64} {
				for _, cols := range []int{64, 128, 130, 8500} {
					rows := make([]*Set, nrows)
					for i := range rows {
						rows[i] = fills[fill](cols)
					}
					checkTransposeWindow(t, fmt.Sprintf("%s even %dx%d", fill, nrows, cols), rows, cols)
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
	})
}

// FuzzTransposeWindow holds TransposeWindow to the bit-by-bit reference on
// the Go path and, where the CPU has it, the kernel path. The input gives
// the row count (mod 65), dst's length (mod 1025), and then one byte per
// row for its capacity, byte·len(dst)/128, so rows run from empty to
// twice dst's length; a row without its byte is as long as dst. The
// bytes after those are the rows' bits, one after another, repeated as
// far as the rows need; without them every row is full.
func FuzzTransposeWindow(f *testing.F) {
	f.Add(uint8(64), uint16(130), []byte{})
	f.Add(uint8(9), uint16(512), []byte{128, 128, 128, 128, 128, 128, 128, 128, 128, 0x5a, 0x0f})
	f.Add(uint8(63), uint16(200), []byte{0, 40, 255, 128, 100, 0xc3})
	f.Fuzz(func(t *testing.T, nrows uint8, cols uint16, data []byte) {
		n, m := int(nrows)%(wordBits+1), int(cols)%1025
		caps, bitBytes := data[:min(n, len(data))], data[min(n, len(data)):]
		rows := make([]*Set, n)
		bit := 0
		for k := range rows {
			capacity := m
			if k < len(caps) {
				capacity = int(caps[k]) * m / 128
			}
			rows[k] = New(capacity)
			for i := 0; i < capacity; i, bit = i+1, bit+1 {
				if len(bitBytes) == 0 || bitBytes[bit/8%len(bitBytes)]>>uint(bit%8)&1 != 0 {
					rows[k].Add(i)
				}
			}
		}
		name := fmt.Sprintf("%d rows x %d columns", n, m)
		withTransposeKernel(false, func() { checkTransposeWindow(t, "goloop: "+name, rows, m) })
		if cpufeat.TransposeKernel {
			checkTransposeWindow(t, "kernel: "+name, rows, m)
		}
	})
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

// checkTranspose64Kernel holds transpose64Kernel to transpose64 on one
// block.
func checkTranspose64Kernel(t *testing.T, name string, blk *[wordBits]uint64) {
	t.Helper()
	got, want := *blk, *blk
	transpose64Kernel(&got)
	transpose64(&want)
	if got != want {
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: word %d = %#x, the Go loop gives %#x", name, j, got[j], want[j])
			}
		}
	}
}

// TestTranspose64Kernel holds the AVX-512 kernel to the Go loop on every
// single-bit block, where the one set bit must also land at its mirror
// position, on the all-zero and all-ones blocks, and on random blocks of
// several densities.
func TestTranspose64Kernel(t *testing.T) {
	if !cpufeat.TransposeKernel {
		t.Skip("no AVX-512F, AVX-512VBMI and GFNI here: every transpose runs the Go loop")
	}
	for k := 0; k < wordBits; k++ {
		for j := 0; j < wordBits; j++ {
			var blk [wordBits]uint64
			blk[k] = 1 << uint(j)
			name := fmt.Sprintf("bit %d of row %d", j, k)
			checkTranspose64Kernel(t, name, &blk)
			transpose64Kernel(&blk)
			for w, v := range blk {
				want := uint64(0)
				if w == j {
					want = 1 << uint(k)
				}
				if v != want {
					t.Fatalf("%s: word %d = %#x, want %#x", name, w, v, want)
				}
			}
		}
	}
	var zero, ones [wordBits]uint64
	for k := range ones {
		ones[k] = ^uint64(0)
	}
	checkTranspose64Kernel(t, "zero", &zero)
	checkTranspose64Kernel(t, "ones", &ones)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		var blk [wordBits]uint64
		for k := range blk {
			blk[k] = r.Uint64()
			// Every fourth block sparse, every fourth dense.
			switch i % 4 {
			case 1:
				blk[k] &= r.Uint64() & r.Uint64()
			case 2:
				blk[k] |= r.Uint64() | r.Uint64()
			}
		}
		checkTranspose64Kernel(t, fmt.Sprintf("random block %d", i), &blk)
	}
}

// FuzzTranspose64 holds the AVX-512 kernel to the Go loop on a block of
// 512 fuzzed bytes, little-endian words, zero-padded when shorter.
func FuzzTranspose64(f *testing.F) {
	if !cpufeat.TransposeKernel {
		f.Skip("no AVX-512F, AVX-512VBMI and GFNI here: every transpose runs the Go loop")
	}
	seq := make([]byte, 8*wordBits)
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq)
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [8 * wordBits]byte
		copy(buf[:], data)
		var blk [wordBits]uint64
		for k := range blk {
			blk[k] = binary.LittleEndian.Uint64(buf[8*k:])
		}
		checkTranspose64Kernel(t, "fuzzed block", &blk)
	})
}

// The Legacy/Fast pairs below are the Go loop against the AVX-512
// kernels; cmd/ttdcbench derives their ratios. Transpose64 times one
// block in place. TransposeWindow times one window: Legacy gathers each
// block's row words in Go, transposes it with the Go loop and copies it
// out; Fast gathers, transposes and stores every whole block in one
// leaf, and only the partial last block takes the Go gather.
func BenchmarkTranspose64Legacy(b *testing.B) { benchTranspose64(b, transpose64) }

func BenchmarkTranspose64Fast(b *testing.B) {
	if !cpufeat.TransposeKernel {
		b.Skip("no AVX-512F, AVX-512VBMI and GFNI here")
	}
	benchTranspose64(b, transpose64Kernel)
}

func benchTranspose64(b *testing.B, transpose func(*[wordBits]uint64)) {
	r := rand.New(rand.NewSource(1))
	var blk [wordBits]uint64
	for k := range blk {
		blk[k] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transpose(&blk)
	}
}

// benchWindowRows is one window of the campaign's saturation jobs: 64
// slots over 8,500 nodes, each slot receiving at 2,000 of them, as at
// the (250, 2000) duty point.
func benchWindowRows() ([]*Set, []uint64) {
	r := rand.New(rand.NewSource(1))
	const n = 8500
	rows := make([]*Set, wordBits)
	for i := range rows {
		rows[i] = New(n)
		for _, e := range r.Perm(n)[:2000] {
			rows[i].Add(e)
		}
	}
	return rows, make([]uint64, n)
}

func BenchmarkTransposeWindowLegacy(b *testing.B) {
	withTransposeKernel(false, func() { benchTransposeWindow(b) })
}

func BenchmarkTransposeWindowFast(b *testing.B) {
	if !cpufeat.TransposeKernel {
		b.Skip("no AVX-512F, AVX-512VBMI and GFNI here")
	}
	benchTransposeWindow(b)
}

func benchTransposeWindow(b *testing.B) {
	rows, dst := benchWindowRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeWindow(rows, dst)
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
