// Package bitset provides a dense, fixed-capacity bitset used throughout the
// library to represent node sets (subsets of V_n) and slot sets (subsets of
// a frame [0, L)).
//
// Topology-transparency checks and worst-case throughput computations iterate
// over very large numbers of subsets (on the order of C(n-1, D) per node), so
// the representation is a flat []uint64 with no per-element allocation, and
// all binary operations have in-place variants.
//
// A Set has a fixed capacity chosen at creation; all elements must lie in
// [0, capacity). Operations between sets of different capacities are allowed
// and behave as if the shorter set were padded with zero bits.
package bitset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bitset. The zero value is an empty set with capacity 0;
// use New to create a set with room for elements.
type Set struct {
	words []uint64
	cap   int
}

// New returns an empty set with capacity for elements in [0, capacity).
func New(capacity int) *Set {
	if capacity < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", capacity))
	}
	return &Set{
		words: make([]uint64, (capacity+wordBits-1)/wordBits),
		cap:   capacity,
	}
}

// FromSlice returns a set with the given capacity containing every element
// of elems. It panics if an element is out of range.
func FromSlice(capacity int, elems []int) *Set {
	s := New(capacity)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Window returns a new set with s's capacity holding the elements of s in
// [lo, hi): s's words from lo's to hi-1's, with the two end words masked,
// so a run of consecutive elements costs a word copy, not an Add per
// element. It panics unless 0 <= lo <= hi <= Cap().
func (s *Set) Window(lo, hi int) *Set {
	if lo < 0 || lo > hi || hi > s.cap {
		panic(fmt.Sprintf("bitset: window [%d,%d) out of range [0,%d]", lo, hi, s.cap))
	}
	w := New(s.cap)
	if lo == hi {
		return w
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	copy(w.words[first:last+1], s.words[first:last+1])
	w.words[first] &= ^uint64(0) << uint(lo%wordBits)
	w.words[last] &= ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	return w
}

// Cap returns the capacity of the set: elements lie in [0, Cap()).
func (s *Set) Cap() int { return s.cap }

func (s *Set) check(i int) {
	if i < 0 || i >= s.cap {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", i, s.cap))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set. Out-of-range values are simply
// not contained (no panic), which lets callers probe safely.
//
//ttdc:hotpath membership probe on the simulator slot loops; one shift and one AND
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.cap {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping the capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), cap: s.cap}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o. The sets must have the same
// capacity.
func (s *Set) Copy(o *Set) {
	if s.cap != o.cap {
		panic(fmt.Sprintf("bitset: Copy capacity mismatch %d != %d", s.cap, o.cap))
	}
	copy(s.words, o.words)
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// UnionWith adds every element of o to s (s |= o). Elements of o beyond
// s's capacity cause a panic.
//
//ttdc:hotpath in-place set union on the verification walks; word loop over existing backing arrays
func (s *Set) UnionWith(o *Set) {
	if o.cap > s.cap {
		// Permit only if the extra words are zero.
		for i := len(s.words); i < len(o.words); i++ {
			if o.words[i] != 0 {
				panic("bitset: UnionWith operand exceeds receiver capacity")
			}
		}
	}
	for i := 0; i < minInt(len(s.words), len(o.words)); i++ {
		s.words[i] |= o.words[i]
	}
}

// IntersectWith keeps only the elements of s that are also in o (s &= o).
//
//ttdc:hotpath in-place set intersection on the verification walks
func (s *Set) IntersectWith(o *Set) {
	n := minInt(len(s.words), len(o.words))
	for i := 0; i < n; i++ {
		s.words[i] &= o.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// DifferenceWith removes every element of o from s (s &^= o).
//
//ttdc:hotpath in-place set difference; the naive kernels pay it D times per subset
func (s *Set) DifferenceWith(o *Set) {
	for i := 0; i < minInt(len(s.words), len(o.words)); i++ {
		s.words[i] &^= o.words[i]
	}
}

// CopyThenDifference overwrites s with a \ b in a single pass (s = a &^ b)
// and reports whether the result is empty. It fuses the Copy+DifferenceWith
// pair on the verification hot path: one level of the subset-enumeration
// tree costs exactly one call, and the emptiness flag (needed for pruning)
// falls out of the same word loop for free. s and a must have the same
// capacity; b is treated as zero-padded beyond its own.
//
//ttdc:hotpath one fused word pass per prefix extension of every verification walk
func (s *Set) CopyThenDifference(a, b *Set) bool {
	if s.cap != a.cap {
		panic(fmt.Sprintf("bitset: CopyThenDifference capacity mismatch %d != %d", s.cap, a.cap))
	}
	any := uint64(0)
	n := minInt(len(a.words), len(b.words))
	for i := 0; i < n; i++ {
		w := a.words[i] &^ b.words[i]
		s.words[i] = w
		any |= w
	}
	for i := n; i < len(a.words); i++ {
		w := a.words[i]
		s.words[i] = w
		any |= w
	}
	return any == 0
}

// Union returns a new set containing the union of s and o, with the larger
// of the two capacities.
func Union(s, o *Set) *Set {
	if o.cap > s.cap {
		s, o = o, s
	}
	r := s.Clone()
	r.UnionWith(o)
	return r
}

// Intersect returns a new set containing the intersection of s and o.
func Intersect(s, o *Set) *Set {
	if o.cap > s.cap {
		s, o = o, s
	}
	r := s.Clone()
	r.IntersectWith(o)
	return r
}

// Difference returns a new set containing s \ o.
func Difference(s, o *Set) *Set {
	r := s.Clone()
	r.DifferenceWith(o)
	return r
}

// Intersects reports whether s and o share at least one element, without
// allocating.
//
//ttdc:hotpath condition-(2) probe of the requirement checks; short-circuiting word scan
func (s *Set) Intersects(o *Set) bool {
	for i := 0; i < minInt(len(s.words), len(o.words)); i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	n := minInt(len(s.words), len(o.words))
	for i := 0; i < n; i++ {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	for i := n; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectionCount returns |s ∩ o| without allocating.
//
//ttdc:hotpath popcount reduction on the throughput scans
func (s *Set) IntersectionCount(o *Set) int {
	n := 0
	for i := 0; i < minInt(len(s.words), len(o.words)); i++ {
		n += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return n
}

// DifferenceCount returns |s \ o| without allocating.
func (s *Set) DifferenceCount(o *Set) int {
	n := 0
	m := minInt(len(s.words), len(o.words))
	for i := 0; i < m; i++ {
		n += bits.OnesCount64(s.words[i] &^ o.words[i])
	}
	for i := m; i < len(s.words); i++ {
		n += bits.OnesCount64(s.words[i])
	}
	return n
}

// DifferenceEmpty reports whether s \ o is empty, i.e. s ⊆ o, restricted to
// shared words; it is an alias of SubsetOf kept for call-site readability in
// freeSlots-style expressions.
func (s *Set) DifferenceEmpty(o *Set) bool { return s.SubsetOf(o) }

// DifferenceIntersectionCount returns |(s \ o) ∩ mask| without
// materializing the difference. This is the 𝒯(x, y, S) cardinality of the
// throughput scan — |freeSlots ∩ recv(y)| — evaluated at the last level of
// the enumeration tree in one pass. o and mask are treated as zero-padded
// beyond their own capacities.
//
//ttdc:hotpath the D == 1 throughput cardinality, one fused popcount pass per pair
func (s *Set) DifferenceIntersectionCount(o, mask *Set) int {
	n := 0
	m := minInt(len(s.words), len(mask.words))
	ov := minInt(m, len(o.words))
	for i := 0; i < ov; i++ {
		n += bits.OnesCount64(s.words[i] &^ o.words[i] & mask.words[i])
	}
	for i := ov; i < m; i++ {
		n += bits.OnesCount64(s.words[i] & mask.words[i])
	}
	return n
}

// Transpose returns the transpose of the bit matrix whose row i is rows[i]:
// cols sets, each with capacity len(rows), such that i is in set j exactly
// when j is in rows[i]. Elements of a row at or beyond cols are ignored, and
// a row shorter than cols reads as zero-padded.
//
// It moves whole 64×64 bit blocks, a few word operations per 64 elements.
// The returned sets share one backing slab; each holds a full-capacity
// sub-slice of it, so no set can reach its neighbour's words.
func Transpose(rows []*Set, cols int) []*Set {
	if cols < 0 {
		panic(fmt.Sprintf("bitset: Transpose with %d columns", cols))
	}
	n := len(rows)
	outWords := (n + wordBits - 1) / wordBits
	slab := make([]uint64, cols*outWords)
	sets := make([]Set, cols)
	out := make([]*Set, cols)
	for j := range sets {
		sets[j] = Set{words: slab[j*outWords : (j+1)*outWords : (j+1)*outWords], cap: n}
		out[j] = &sets[j]
	}
	src := make([][]uint64, n)
	for i, r := range rows {
		src[i] = r.words
	}
	// Column words outermost: the 64 output sets of one column word are
	// written front to back, and the rows' words are read in order.
	var blk [wordBits]uint64
	for cw := 0; cw*wordBits < cols; cw++ {
		jn := minInt(wordBits, cols-cw*wordBits)
		for rw := 0; rw < outWords; rw++ {
			block := src[rw*wordBits : minInt(n, (rw+1)*wordBits)]
			for k, w := range block {
				blk[k] = 0
				if cw < len(w) {
					blk[k] = w[cw]
				}
			}
			for k := len(block); k < wordBits; k++ {
				blk[k] = 0
			}
			transpose64(&blk)
			for j := 0; j < jn; j++ {
				slab[(cw*wordBits+j)*outWords+rw] = blk[j]
			}
		}
	}
	return out
}

// transpose64 transposes the 64×64 bit matrix whose row k is a[k], bit j
// of a word being column j: afterwards bit k of a[j] holds what bit j of
// a[k] held. Each round swaps the off-diagonal halves of every diagonal
// block, blocks of 64 rows first, then 32, ..., then 2 (Hacker's Delight
// §7-3, for least-significant-bit-first columns).
func transpose64(a *[wordBits]uint64) {
	swapBlocks(a, 32, 0x00000000FFFFFFFF)
	swapBlocks(a, 16, 0x0000FFFF0000FFFF)
	swapBlocks(a, 8, 0x00FF00FF00FF00FF)
	swapBlocks(a, 4, 0x0F0F0F0F0F0F0F0F)
	swapBlocks(a, 2, 0x3333333333333333)
	swapBlocks(a, 1, 0x5555555555555555)
}

// swapBlocks is one round of transpose64: in every block of 2j rows it
// swaps the high-j columns of the first j rows (within each 2j-column
// group, selected by m) with the low-j columns of the last j rows. The
// &63 masks let the compiler drop the bounds checks.
func swapBlocks(a *[wordBits]uint64, j int, m uint64) {
	for base := 0; base < wordBits; base += 2 * j {
		for k := base; k < base+j; k++ {
			lo, hi := &a[k&63], &a[(k+j)&63]
			t := (*lo>>uint(j) ^ *hi) & m
			*lo ^= t << uint(j)
			*hi ^= t
		}
	}
}

// Words exposes the backing word slice (bit i of word w is element
// 64*w + i). It exists for the verification kernels in internal/core, whose
// innermost leaf loops fuse several set operations into single word scans;
// callers must treat the slice as read-only and must not retain it past the
// set's lifetime. All other callers should use the set operations above.
func (s *Set) Words() []uint64 { return s.words }

// ForEach calls fn for each element of the set in increasing order. If fn
// returns false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the elements of the set in increasing order.
func (s *Set) Elements() []int {
	return s.AppendElements(make([]int, 0, s.Count()))
}

// AppendElements appends the elements of the set to dst in increasing
// order and returns the extended slice.
func (s *Set) AppendElements(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	var num [20]byte
	b.WriteByte('{')
	for wi, w := range s.words {
		for w != 0 {
			if b.Len() > 1 {
				b.WriteString(", ")
			}
			b.Write(strconv.AppendInt(num[:0], int64(wi*wordBits+bits.TrailingZeros64(w)), 10))
			w &= w - 1
		}
	}
	b.WriteByte('}')
	return b.String()
}
