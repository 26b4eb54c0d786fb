package core

import (
	"math/big"

	"repro/internal/bitset"
	"repro/internal/combin"
)

// This file preserves the straightforward per-subset implementations of the
// exhaustive checks as reference kernels. Each one re-derives the free-slot
// set of every D-subset from scratch — a full Copy plus D DifferenceWith
// per subset — which is what the prefix-cached kernels in verifier.go
// replace. They live in a test file because nothing in production runs
// them, and they serve three purposes: they are the ground truth of the
// differential tests, the baseline of the old-vs-new benchmark pairs in
// BENCH_core.json, and the most literal transcription of the paper's
// definitions for readers auditing the reproduction.

// checkRequirement1Naive is the reference implementation of
// CheckRequirement1: Θ(C(n-1, D)·D·L/64) per node.
func checkRequirement1Naive(s *Schedule, d int) *Witness {
	validateD(s.n, d)
	var found *Witness
	others := make([]int, 0, s.n-1)
	fs := bitset.New(s.L())
	for x := 0; x < s.n && found == nil; x++ {
		others = others[:0]
		for v := 0; v < s.n; v++ {
			if v != x {
				others = append(others, v)
			}
		}
		combin.CombinationsOf(others, d, func(y []int) bool {
			fs.Copy(s.tran[x])
			for _, v := range y {
				fs.DifferenceWith(s.tran[v])
			}
			if fs.Empty() {
				found = &Witness{X: x, Y: append([]int(nil), y...), K: -1}
				return false
			}
			return true
		})
	}
	return found
}

// checkRequirement3Naive is the reference implementation of
// CheckRequirement3.
func checkRequirement3Naive(s *Schedule, d int) *Witness {
	validateD(s.n, d)
	for x := 0; x < s.n; x++ {
		if w := checkRequirement3NodeNaive(s, d, x); w != nil {
			return w
		}
	}
	return nil
}

// checkRequirement3NodeNaive is the reference implementation of
// CheckRequirement3Node.
func checkRequirement3NodeNaive(s *Schedule, d, x int) *Witness {
	validateD(s.n, d)
	validateNode(s.n, x)
	others := make([]int, 0, s.n-1)
	for v := 0; v < s.n; v++ {
		if v != x {
			others = append(others, v)
		}
	}
	fs := bitset.New(s.L())
	var found *Witness
	combin.CombinationsOf(others, d, func(y []int) bool {
		fs.Copy(s.tran[x])
		for _, v := range y {
			fs.DifferenceWith(s.tran[v])
		}
		if fs.Empty() {
			found = &Witness{X: x, Y: append([]int(nil), y...), K: -1}
			return false
		}
		for k, v := range y {
			if !s.recv[v].Intersects(fs) {
				found = &Witness{X: x, Y: append([]int(nil), y...), K: k}
				return false
			}
		}
		return true
	})
	return found
}

// checkRequirement2Naive is the reference implementation of
// CheckRequirement2.
func checkRequirement2Naive(s *Schedule, d int) *Req2Witness {
	validateD(s.n, d)
	k := d - 1
	if k > s.n-2 {
		k = s.n - 2
	}
	var found *Req2Witness
	others := make([]int, 0, s.n-2)
	union := bitset.New(s.L())
	for x := 0; x < s.n && found == nil; x++ {
		for y := 0; y < s.n && found == nil; y++ {
			if y == x {
				continue
			}
			sigmaXY := s.Sigma(x, y)
			others = others[:0]
			for v := 0; v < s.n; v++ {
				if v != x && v != y {
					others = append(others, v)
				}
			}
			combin.CombinationsOf(others, k, func(interf []int) bool {
				union.Clear()
				for _, v := range interf {
					union.UnionWith(s.Sigma(v, y))
				}
				if sigmaXY.SubsetOf(union) {
					found = &Req2Witness{X: x, Y: y, Interferer: append([]int(nil), interf...)}
					return false
				}
				return true
			})
		}
	}
	return found
}

// minThroughputNaive is the reference implementation of MinThroughput.
func minThroughputNaive(s *Schedule, d int) *big.Rat {
	validateD(s.n, d)
	minSlots := -1
	forEachTriple(s, d, func(x, y int, set []int) bool {
		c := s.TSlots(x, y, set).Count()
		if minSlots < 0 || c < minSlots {
			minSlots = c
		}
		return minSlots != 0 // stop early at zero: it cannot go lower
	})
	if minSlots < 0 {
		minSlots = 0
	}
	return big.NewRat(int64(minSlots), int64(s.L()))
}

// avgThroughputBruteForceNaive is the reference implementation of
// AvgThroughputBruteForce.
func avgThroughputBruteForceNaive(s *Schedule, d int) *big.Rat {
	validateD(s.n, d)
	f := new(big.Int)
	forEachTriple(s, d, func(x, y int, set []int) bool {
		f.Add(f, big.NewInt(int64(s.TSlots(x, y, set).Count())))
		return true
	})
	den := new(big.Int).Mul(big.NewInt(int64(s.n)), big.NewInt(int64(s.n-1)))
	den.Mul(den, combin.Binomial(s.n-2, d-1))
	den.Mul(den, big.NewInt(int64(s.L())))
	return combin.RatFromInts(f, den)
}
