// Package stats provides the deterministic random number generation and the
// summary statistics used by the simulator and the experiment harness.
//
// Every randomized component in the repository takes an explicit *stats.RNG
// so that experiment tables are reproducible bit-for-bit from a seed.
package stats

import "math"

// RNG is a small, fast, deterministic generator (splitmix64 core). It is not
// cryptographic; it exists so simulations are reproducible across platforms
// without depending on math/rand's global state or version-dependent
// algorithms.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden is splitmix64's state increment: the state after k draws is
// seed + k·golden, whatever the draws were.
const golden = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function of one state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// blockScan says whether ScanAbove uses the block kernel. It is set once,
// at init, from the CPU; only tests change it, to run the Go loop alone.
var blockScan = cpuHasBlockKernel()

// maxScanBlocks caps the blocks one scanBlocks call tests (32768 draws,
// some microseconds), so a long scan returns to Go between calls and
// stays preemptible.
const maxScanBlocks = 4096

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// ScanAbove consumes draws while they are <= threshold, at most count of
// them. It returns how many draws it skipped and, when that is less than
// count, the first draw above threshold, which it consumes too; otherwise
// the draw is 0. The generator ends in the state the same Uint64 calls
// would leave, so a caller may mix ScanAbove and the other draws freely.
//
// The state advances by golden whatever the draws are, so the next
// outputs mix64(s+golden), mix64(s+2·golden), ... do not depend on each
// other. Where the CPU has AVX-512 (cpuHasBlockKernel), ScanAbove first
// hands whole 8-draw blocks to scanBlocks, which tests eight per
// iteration, at most maxScanBlocks per call; the Go loop below then
// finishes the scan, four per step and then one at a time, from the
// first block that holds a draw above threshold. On other hosts the Go
// loop does the whole scan. A run of Bernoulli trials with a small
// success probability — the convergecast arrival draws — thus costs one
// vector step per eight trials, or one loop step per four, instead of a
// call per trial.
//
//ttdc:hotpath the convergecast arrival scan, twice per slot of every run; register arithmetic only
func (r *RNG) ScanAbove(count int, threshold uint64) (skipped int, draw uint64) {
	s := r.state
	i := 0
	for blockScan && count-i >= 8 {
		want := min((count-i)/8, maxScanBlocks)
		b := scanBlocks(s, want, threshold)
		i += 8 * b
		s += uint64(8*b) * golden
		if b < want {
			break
		}
	}
	for ; i+4 <= count; i += 4 {
		s1 := s + golden
		s2 := s1 + golden
		s3 := s2 + golden
		s4 := s3 + golden
		if mix64(s1) > threshold || mix64(s2) > threshold ||
			mix64(s3) > threshold || mix64(s4) > threshold {
			break
		}
		s = s4
	}
	for ; i < count; i++ {
		s += golden
		if v := mix64(s); v > threshold {
			r.state = s
			return i, v
		}
	}
	r.state = s
	return count, 0
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire-style rejection to avoid modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements addressed by swap, Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Used for Poisson packet inter-arrival times.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Split returns a new RNG derived from this one, suitable for giving an
// independent deterministic stream to a sub-component.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// DeriveSeed returns the index-th value of the splitmix64 stream rooted at
// base — exactly what NewRNG(base) would produce on its (index+1)-th call
// to Uint64, computed in O(1). It exists so a batch of jobs can each get an
// independent deterministic seed from (campaign seed, job index) without
// sharing a generator, making per-job results independent of execution
// order and worker count.
func DeriveSeed(base uint64, index uint64) uint64 {
	return mix64(base + (index+1)*golden)
}
