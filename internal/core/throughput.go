package core

import (
	"fmt"
	"math/big"

	"repro/internal/combin"
)

// Analysis functions take the network-class parameters (n is the schedule's
// universe size; D the degree bound) and compute the paper's worst-case
// throughput quantities exactly.

// MinThroughput computes Thr^min (Definition 1): the minimum over all
// ordered pairs x ≠ y and all neighbourhood completions S ⊆ V_n - {x,y}
// with |S| = D-1 of |𝒯(x, y, S)| / L. The schedule is topology-transparent
// for N(n, D) exactly when this value is positive.
//
// Cost of the underlying scan is O(n² · C(n-2, D-1) · L/64) with heavy
// pruning; it runs on the prefix-cached Verifier kernel. Construct a
// Verifier directly to amortize its scratch over many evaluations.
func MinThroughput(s *Schedule, d int) *big.Rat {
	return NewVerifier(s, d).MinThroughput()
}

// AvgThroughputBruteForce computes Thr^ave (Definition 2) directly from its
// definition: F = Σ_{x≠y} Σ_{S} |𝒯(x,y,S)| divided by
// n(n-1)·C(n-2, D-1)·L. Exponential in D; used to cross-validate the
// Theorem 2 closed form on small instances. It runs on the prefix-cached
// Verifier kernel.
func AvgThroughputBruteForce(s *Schedule, d int) *big.Rat {
	return NewVerifier(s, d).AvgThroughputBruteForce()
}

// AvgThroughput computes Thr^ave via the Theorem 2 closed form:
//
//	Thr^ave = Σ_i |T[i]|·|R[i]|·C(n-|T[i]|-1, D-1) / (n(n-1)·C(n-2,D-1)·L)
//
// A slot's term depends only on its shape (|T[i]|, |R[i]|), and a
// Construct output has a handful of shapes, so the slots are counted per
// shape and each shape adds count·|T|·|R|·C(n-|T|-1, D-1) once: Θ(L)
// popcounts and Θ(shapes) big-integer operations. With so few shapes a
// linear scan of the counted ones beats hashing every slot's shape.
func AvgThroughput(s *Schedule, d int) *big.Rat {
	validateD(s.n, d)
	type shape struct{ t, r, slots int }
	var shapes []shape // first-seen order, so the sum is built in a fixed order
	for i := 0; i < s.L(); i++ {
		t, r := s.t[i].Count(), s.r[i].Count()
		if t == 0 || r == 0 {
			continue
		}
		j := 0
		for j < len(shapes) && (shapes[j].t != t || shapes[j].r != r) {
			j++
		}
		if j == len(shapes) {
			shapes = append(shapes, shape{t: t, r: r})
		}
		shapes[j].slots++
	}
	num := new(big.Int)
	term := new(big.Int)
	count := new(big.Int)
	for _, sh := range shapes {
		term.SetInt64(int64(sh.t) * int64(sh.r))
		term.Mul(term, count.SetInt64(int64(sh.slots)))
		term.Mul(term, combin.Binomial(s.n-sh.t-1, d-1))
		num.Add(num, term)
	}
	den := new(big.Int).Mul(big.NewInt(int64(s.n)), big.NewInt(int64(s.n-1)))
	den.Mul(den, combin.Binomial(s.n-2, d-1))
	den.Mul(den, big.NewInt(int64(s.L())))
	return combin.RatFromInts(num, den)
}

// G computes g_{n,D}(x) = x·C(n-x, D) / (n·C(n-1, D)): the average
// worst-case throughput of a non-sleeping schedule whose every slot has
// exactly x transmitters (§5 of the paper).
func G(n, d, x int) *big.Rat {
	if x < 0 || x > n {
		panic(fmt.Sprintf("core: G with x = %d outside [0, %d]", x, n))
	}
	num := new(big.Int).Mul(big.NewInt(int64(x)), combin.Binomial(n-x, d))
	den := new(big.Int).Mul(big.NewInt(int64(n)), combin.Binomial(n-1, d))
	return combin.RatFromInts(num, den)
}

// OptimalTransmitters returns αT★ of Theorem 3: the per-slot transmitter
// count in {⌊(n-D)/(D+1)⌋, ⌈(n-D)/(D+1)⌉} (clamped to at least 1)
// maximizing x·C(n-x, D), preferring the floor on ties, exactly as the
// theorem's case split specifies.
func OptimalTransmitters(n, d int) int {
	validateD(n, d)
	lo := (n - d) / (d + 1)
	hi := combin.CeilDiv(n-d, d+1)
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	score := func(x int) *big.Int {
		return new(big.Int).Mul(big.NewInt(int64(x)), combin.Binomial(n-x, d))
	}
	return combin.ArgmaxInt([]int{lo, hi}, score)
}

// GeneralThroughputBound returns Thr★ of Theorem 3:
// αT★·C(n-αT★, D) / (n·C(n-1, D)), the largest average worst-case
// throughput any schedule can achieve in N(n, D). It is attained exactly
// by non-sleeping schedules with |T[i]| = αT★ in every slot.
func GeneralThroughputBound(n, d int) *big.Rat {
	return G(n, d, OptimalTransmitters(n, d))
}

// LooseGeneralBound returns the closed-form relaxation of Theorem 3:
// n·D^D / ((n-D)·(D+1)^(D+1)) >= Thr★.
func LooseGeneralBound(n, d int) *big.Rat {
	validateD(n, d)
	dd := new(big.Int).Exp(big.NewInt(int64(d)), big.NewInt(int64(d)), nil)
	num := new(big.Int).Mul(big.NewInt(int64(n)), dd)
	d1 := new(big.Int).Exp(big.NewInt(int64(d+1)), big.NewInt(int64(d+1)), nil)
	den := new(big.Int).Mul(big.NewInt(int64(n-d)), d1)
	return combin.RatFromInts(num, den)
}

// OptimalTransmittersCapped returns αT★ of Theorem 4 for an
// (αT, αR)-schedule: min{αT, α}, where α is the value in
// {⌊(n-D)/D⌋, ⌈(n-D)/D⌉} (clamped to at least 1) maximizing
// x·C(n-x-1, D-1), preferring the floor on ties.
func OptimalTransmittersCapped(n, d, alphaT int) int {
	validateD(n, d)
	if alphaT < 1 {
		panic(fmt.Sprintf("core: αT = %d < 1", alphaT))
	}
	lo := (n - d) / d
	hi := combin.CeilDiv(n-d, d)
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	score := func(x int) *big.Int {
		return new(big.Int).Mul(big.NewInt(int64(x)), combin.Binomial(n-x-1, d-1))
	}
	alpha := combin.ArgmaxInt([]int{lo, hi}, score)
	if alphaT < alpha {
		return alphaT
	}
	return alpha
}

// CappedThroughputBound returns Thr★_{αR,αT} of Theorem 4:
//
//	αR·αT★·C(n-αT★-1, D-1) / (n(n-1)·C(n-2, D-1))
//
// the largest average worst-case throughput any (αT, αR)-schedule can
// achieve in N(n, D); attained exactly when |R[i]| = αR and |T[i]| = αT★
// in every slot.
func CappedThroughputBound(n, d, alphaT, alphaR int) *big.Rat {
	validateD(n, d)
	if alphaR < 1 {
		panic(fmt.Sprintf("core: αR = %d < 1", alphaR))
	}
	aStar := OptimalTransmittersCapped(n, d, alphaT)
	num := new(big.Int).Mul(big.NewInt(int64(alphaR)), big.NewInt(int64(aStar)))
	num.Mul(num, combin.Binomial(n-aStar-1, d-1))
	den := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(n-1)))
	den.Mul(den, combin.Binomial(n-2, d-1))
	return combin.RatFromInts(num, den)
}

// LooseCappedBound returns the closed-form relaxation of Theorem 4:
// αR·(n-1)·(D-1)^(D-1) / (n·(n-D)·D^D) >= Thr★_{αR,αT}.
func LooseCappedBound(n, d, alphaR int) *big.Rat {
	validateD(n, d)
	dm1 := new(big.Int).Exp(big.NewInt(int64(d-1)), big.NewInt(int64(d-1)), nil)
	num := new(big.Int).Mul(big.NewInt(int64(alphaR)), big.NewInt(int64(n-1)))
	num.Mul(num, dm1)
	dd := new(big.Int).Exp(big.NewInt(int64(d)), big.NewInt(int64(d)), nil)
	den := new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(n-d)))
	den.Mul(den, dd)
	return combin.RatFromInts(num, den)
}

// RatioR computes r(x) of §7:
//
//	r(x) = (x/αT★) · Π_{i=1}^{D-1} (n-i-x)/(n-i-αT★)
//
// the ratio of the per-slot throughput contribution with x transmitters to
// that with the optimal αT★ = OptimalTransmittersCapped(n, D, αT)
// transmitters. r(αT★) == 1.
func RatioR(n, d, alphaT, x int) *big.Rat {
	validateD(n, d)
	aStar := OptimalTransmittersCapped(n, d, alphaT)
	r := big.NewRat(int64(x), int64(aStar))
	for i := 1; i <= d-1; i++ {
		num := int64(n - i - x)
		den := int64(n - i - aStar)
		if den == 0 {
			panic(fmt.Sprintf("core: RatioR denominator zero at i=%d (n=%d, αT★=%d)", i, n, aStar))
		}
		r.Mul(r, big.NewRat(num, den))
	}
	return r
}

// OptimalityRatio returns Thr^ave(s) / Thr★_{αR,αT}: how close schedule s
// comes to the Theorem 4 optimum. By §7 this equals (1/L)·Σ_i r(|T[i]|)
// when |R[i]| = αR in every slot.
func OptimalityRatio(s *Schedule, d, alphaT, alphaR int) *big.Rat {
	bound := CappedThroughputBound(s.n, d, alphaT, alphaR)
	return new(big.Rat).Quo(AvgThroughput(s, d), bound)
}

// Theorem8LowerBound computes the Theorem 8 lower bound on the optimality
// ratio of the schedule Construct produces from the non-sleeping input ns:
//
//	(r(M_in)·|A1| + c·|A2|) / (|A1| + c·|A2|)
//
// where A1 = {i : |T[i]| < αT★}, A2 = {i : |T[i]| >= αT★},
// c = (⌈n/α_m⌉ - 1) / ⌈(n - M_in)/αR⌉ and α_m = max{αT★, αR}. The bound
// equals 1 when M_in >= αT★.
func Theorem8LowerBound(ns *Schedule, d, alphaT, alphaR int) *big.Rat {
	n := ns.n
	aStar := OptimalTransmittersCapped(n, d, alphaT)
	min := ns.MinTransmitters()
	a1, a2 := 0, 0
	for i := 0; i < ns.L(); i++ {
		if ns.t[i].Count() < aStar {
			a1++
		} else {
			a2++
		}
	}
	if a1 == 0 {
		return big.NewRat(1, 1)
	}
	if min >= n {
		// A slot with T[i] = V_n in every slot cannot be topology-transparent
		// (no receivers ever); the bound is undefined for such inputs.
		panic("core: Theorem8LowerBound on a schedule with all nodes transmitting in every slot")
	}
	alphaM := aStar
	if alphaR > alphaM {
		alphaM = alphaR
	}
	cNum := int64(combin.CeilDiv(n, alphaM) - 1)
	cDen := int64(combin.CeilDiv(n-min, alphaR))
	c := big.NewRat(cNum, cDen)

	rMin := RatioR(n, d, alphaT, min)
	ca2 := new(big.Rat).Mul(c, big.NewRat(int64(a2), 1))
	num := new(big.Rat).Mul(rMin, big.NewRat(int64(a1), 1))
	num.Add(num, ca2)
	den := new(big.Rat).Add(big.NewRat(int64(a1), 1), ca2)
	return num.Quo(num, den)
}

// Theorem9Bound computes the Theorem 9 lower bound on the minimum
// throughput of the constructed schedule: (L/L̄)·Thr^min(ns), where L̄ is
// the constructed frame length (Theorem 7).
func Theorem9Bound(ns *Schedule, d, alphaT, alphaR int) *big.Rat {
	n := ns.n
	aStar := OptimalTransmittersCapped(n, d, alphaT)
	lBar := ConstructedFrameLength(ns, aStar, alphaR)
	ratio := big.NewRat(int64(ns.L()), int64(lBar))
	return ratio.Mul(ratio, MinThroughput(ns, d))
}

// ConstructedFrameLength returns the Theorem 7 frame length of the schedule
// Construct produces: Σ_i ⌈|T[i]|/αT★⌉·⌈(n-|T[i]|)/αR⌉.
func ConstructedFrameLength(ns *Schedule, aStar, alphaR int) int {
	total := 0
	for i := 0; i < ns.L(); i++ {
		ti := ns.t[i].Count()
		total += combin.CeilDiv(ti, aStar) * combin.CeilDiv(ns.n-ti, alphaR)
	}
	return total
}

// MinFrameLowerBound returns a counting lower bound on the frame length of
// ANY topology-transparent (αT, αR)-schedule for N(n, D): condition (2) of
// Requirement 3 forces every other node to appear in the receiver set of
// some slot in tran(x), so x needs at least ⌈(n-1)/αR⌉ transmit slots; with
// at most αT transmitters per slot, L ≥ ⌈n·⌈(n-1)/αR⌉ / αT⌉.
//
// When Construct's output (Theorem 7) matches this bound, the paper's
// two-step construction is frame-length optimal for that instance.
func MinFrameLowerBound(n, alphaT, alphaR int) int {
	if n < 2 || alphaT < 1 || alphaR < 1 {
		panic(fmt.Sprintf("core: MinFrameLowerBound(%d, %d, %d)", n, alphaT, alphaR))
	}
	perNode := combin.CeilDiv(n-1, alphaR)
	return combin.CeilDiv(n*perNode, alphaT)
}

// FrameLengthCap returns the Theorem 7 closed-form upper bound
// ⌈M_ax/αT★⌉·⌈(n-M_in)/αR⌉·L on the constructed frame length.
func FrameLengthCap(ns *Schedule, aStar, alphaR int) int {
	return combin.CeilDiv(ns.MaxTransmitters(), aStar) *
		combin.CeilDiv(ns.n-ns.MinTransmitters(), alphaR) * ns.L()
}
