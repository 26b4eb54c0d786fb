package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpufeat"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never produced in 10000 draws", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity: counts within 4 sigma of expectation.
	r := NewRNG(1234)
	const n, k, draws = 7, 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / float64(k)
	sigma := math.Sqrt(expect * (1 - 1/float64(k)))
	for v, c := range counts {
		if math.Abs(float64(c)-expect) > 5*sigma {
			t.Fatalf("value %d count %d too far from expectation %.1f", v, c, expect)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("invalid permutation %v", p)
			}
			seen[v] = true
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	const rate = 2.0
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(3)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.N() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if math.Abs(s.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", s.StdDev())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestPercentile(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Median(); got != 50 {
		t.Fatalf("median = %v", got)
	}
}

func TestQuickSummaryMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip inputs where float sums overflow/lose meaning
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		ok = ok && m >= s.Min()-1e-9*math.Abs(s.Min())-1e-9
		ok = ok && m <= s.Max()+1e-9*math.Abs(s.Max())+1e-9
		ok = ok && s.Variance() >= 0
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for i := 0; i < 10; i++ {
		h.Add(float64(i))
	}
	h.Add(-5) // clamps to first bin
	h.Add(99) // clamps to last bin
	bins := h.Bins()
	if len(bins) != 5 {
		t.Fatalf("bins = %v", bins)
	}
	want := []int{3, 2, 2, 2, 3}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	if h.Total() != 12 {
		t.Fatalf("Total = %d", h.Total())
	}
	lo, hi := h.BinBounds(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("BinBounds(1) = %v,%v", lo, hi)
	}
}

func TestGini(t *testing.T) {
	if got := Gini([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("equal values Gini = %v", got)
	}
	if got := Gini(nil); got != 0 {
		t.Fatalf("empty Gini = %v", got)
	}
	if got := Gini([]float64{7}); got != 0 {
		t.Fatalf("single Gini = %v", got)
	}
	if got := Gini([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("all-zero Gini = %v", got)
	}
	// Total concentration on one of n values: G = (n-1)/n.
	if got := Gini([]float64{0, 0, 0, 12}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %v, want 0.75", got)
	}
	// Order invariance.
	a := Gini([]float64{1, 2, 3, 4})
	b := Gini([]float64{4, 2, 1, 3})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("Gini order-dependent: %v vs %v", a, b)
	}
	// Known value for {1,2,3,4}: G = 0.25.
	if math.Abs(a-0.25) > 1e-12 {
		t.Fatalf("Gini(1..4) = %v, want 0.25", a)
	}
	// More unequal distributions score higher.
	if Gini([]float64{1, 1, 1, 10}) <= Gini([]float64{1, 2, 3, 4}) {
		t.Fatal("Gini should increase with inequality")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative value should panic")
		}
	}()
	Gini([]float64{-1, 2})
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

// TestDeriveSeedMatchesStream pins DeriveSeed to its contract: the O(1)
// formula must equal the sequential splitmix64 stream, so per-index seeds
// are exactly what a shared generator would have handed out in order.
func TestDeriveSeedMatchesStream(t *testing.T) {
	for _, base := range []uint64{0, 1, 42, math.MaxUint64} {
		r := NewRNG(base)
		for i := uint64(0); i < 100; i++ {
			want := r.Uint64()
			if got := DeriveSeed(base, i); got != want {
				t.Fatalf("DeriveSeed(%d, %d) = %d, want %d", base, i, got, want)
			}
		}
	}
}

// TestDeriveSeedSpread: distinct indices must give distinct seeds (the
// stream is a bijection of the counter, so collisions would be a bug).
func TestDeriveSeedSpread(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		s := DeriveSeed(7, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d share seed %d", i, j, s)
		}
		seen[s] = i
	}
}

// scanByUint64 is ScanAbove written with one Uint64 call per draw: the
// reference both scan paths must reproduce draw for draw.
func scanByUint64(r *RNG, count int, threshold uint64) (int, uint64) {
	for i := 0; i < count; i++ {
		if v := r.Uint64(); v > threshold {
			return i, v
		}
	}
	return count, 0
}

// assertScanMatches runs ScanAbove and the Uint64 loop from the same seed
// and requires the same count, draw and final generator state.
func assertScanMatches(t *testing.T, seed uint64, count int, threshold uint64) {
	t.Helper()
	got, want := NewRNG(seed), NewRNG(seed)
	gotN, gotV := got.ScanAbove(count, threshold)
	wantN, wantV := scanByUint64(want, count, threshold)
	if gotN != wantN || gotV != wantV || got.state != want.state {
		t.Fatalf("seed %d count %d threshold %#x: ScanAbove = (%d, %#x) state %#x, Uint64 loop = (%d, %#x) state %#x",
			seed, count, threshold, gotN, gotV, got.state, wantN, wantV, want.state)
	}
}

// scanPaths lists the ScanAbove paths this host runs: the Go loop alone,
// and, where the CPU has AVX-512, the block kernel in front of it.
func scanPaths() []bool {
	if cpufeat.ScanKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

// withBlockScan runs f with the block kernel switched on or off, then
// restores the switch.
func withBlockScan(on bool, f func()) {
	defer func(was bool) { cpufeat.ScanKernel = was }(cpufeat.ScanKernel)
	cpufeat.ScanKernel = on
	f()
}

func TestScanAboveMatchesUint64Loop(t *testing.T) {
	for _, on := range scanPaths() {
		name := "goloop"
		if on {
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) { withBlockScan(on, func() { checkScanAbove(t) }) })
	}
}

func checkScanAbove(t *testing.T) {
	const large = 1001 // not a multiple of four or eight: the tail loop runs too
	for seed := uint64(0); seed < 50; seed++ {
		// A threshold equal to a drawn output: the draw at that position
		// is skipped (<=), the one above it, if any, is returned.
		probe := NewRNG(seed)
		var drawn []uint64
		for i := 0; i < 12; i++ {
			drawn = append(drawn, probe.Uint64())
		}
		thresholds := []uint64{0, math.MaxUint64, 1 << 63, math.MaxUint64 - math.MaxUint64/50}
		thresholds = append(thresholds, drawn[seed%12], drawn[(seed+5)%12])
		for _, threshold := range thresholds {
			for count := 0; count <= 9; count++ {
				assertScanMatches(t, seed, count, threshold)
			}
			assertScanMatches(t, seed, large, threshold)
		}
	}
	// Chained scans, interleaved with plain draws, stay on the stream.
	a, b := NewRNG(9), NewRNG(9)
	threshold := uint64(math.MaxUint64 - math.MaxUint64/20)
	for step := 0; step < 200; step++ {
		count := step % 23
		gotN, gotV := a.ScanAbove(count, threshold)
		wantN, wantV := scanByUint64(b, count, threshold)
		if gotN != wantN || gotV != wantV {
			t.Fatalf("step %d: ScanAbove = (%d, %#x), loop = (%d, %#x)", step, gotN, gotV, wantN, wantV)
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("step %d: streams diverged after the scan", step)
		}
	}
}

// FuzzRNGScan holds ScanAbove to the Uint64 loop on arbitrary seeds,
// counts and thresholds, with the block kernel on and off where the CPU
// has it; counts above 8·maxScanBlocks take more than one kernel call.
func FuzzRNGScan(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint64(0))
	f.Add(uint64(2), uint16(7), uint64(math.MaxUint64))
	f.Add(uint64(3), uint16(1000), uint64(math.MaxUint64-math.MaxUint64/500))
	f.Add(uint64(4), uint16(65535), uint64(math.MaxUint64-math.MaxUint64/100000))
	paths := scanPaths()
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, threshold uint64) {
		for _, on := range paths {
			withBlockScan(on, func() { assertScanMatches(t, seed, int(count), threshold) })
		}
	})
}

// scanBlocksRef is scanBlocks written with one mix64 per draw.
func scanBlocksRef(state uint64, blocks int, threshold uint64) int {
	for b := 0; b < blocks; b++ {
		for k := 1; k <= 8; k++ {
			if mix64(state+uint64(8*b+k)*golden) > threshold {
				return b
			}
		}
	}
	return blocks
}

// TestScanBlocksKernel holds the AVX-512 block kernel to scanBlocksRef
// directly, at block counts around one block and around the per-call cap,
// and at thresholds that pass no draw, every draw, half the draws, and
// the campaign's arrival threshold. A draw above the threshold is then
// placed in each of the eight lanes of one block, the kernel must stop
// at that block, and at a threshold equal to the draw it must pass it.
// ScanAbove's chunking across calls is checked at draw counts around
// 8·maxScanBlocks.
func TestScanBlocksKernel(t *testing.T) {
	if !cpufeat.ScanKernel {
		t.Skip("no AVX-512F and AVX-512DQ here: ScanAbove runs the Go loop alone")
	}
	campaign := uint64(math.Ldexp(math.Exp(-0.002), 53))<<11 | 0x7FF
	thresholds := []uint64{0, math.MaxUint64, 1 << 63, campaign}
	counts := []int{0, 1, 7, 8, 9, maxScanBlocks - 1, maxScanBlocks, maxScanBlocks + 1}
	for seed := uint64(0); seed < 8; seed++ {
		for _, threshold := range thresholds {
			for _, blocks := range counts {
				got, want := scanBlocks(seed, blocks, threshold), scanBlocksRef(seed, blocks, threshold)
				if got != want {
					t.Errorf("scanBlocks(%d, %d, %#x) = %d, want %d", seed, blocks, threshold, got, want)
				}
			}
		}
	}

	// q is the first draw of seed's stream above the campaign threshold;
	// starting the scan at seed + (q-p)·golden puts it at position p.
	const seed, block = 3, 2
	q := 0
	for mix64(seed+uint64(q+1)*golden) <= campaign {
		q++
	}
	if q < 8*(block+1) {
		t.Fatalf("seed %d: first arrival at draw %d, too early to place", seed, q)
	}
	above := mix64(seed + uint64(q+1)*golden)
	for lane := 0; lane < 8; lane++ {
		p := 8*block + lane
		state := seed + uint64(q-p)*golden
		if got := scanBlocks(state, 9, above-1); got != block {
			t.Errorf("lane %d: scanBlocks = %d blocks, want %d: the draw above threshold is in block %d", lane, got, block, block)
		}
		got, want := scanBlocks(state, 9, above), scanBlocksRef(state, 9, above)
		if got != want || got <= block {
			t.Errorf("lane %d: at threshold = draw, scanBlocks = %d blocks, reference %d; want past block %d", lane, got, want, block)
		}
	}

	withBlockScan(true, func() {
		for _, count := range []int{8*(maxScanBlocks-1) + 3, 8 * maxScanBlocks, 8*(maxScanBlocks+1) + 5, 8 * (2*maxScanBlocks + 1)} {
			assertScanMatches(t, 11, count, math.MaxUint64)
			assertScanMatches(t, 11, count, math.MaxUint64-math.MaxUint64/50000)
		}
	})
}
