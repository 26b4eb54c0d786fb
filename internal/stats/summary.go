package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports basic statistics.
// The zero value is ready to use.
type Summary struct {
	values []float64
	sum    float64
	sumSq  float64
	min    float64
	max    float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if len(s.values) == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.values = append(s.values, v)
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.max
}

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Variance returns the sample variance (n-1 denominator), or 0 with fewer
// than two observations.
func (s *Summary) Variance() float64 {
	n := float64(len(s.values))
	if n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sumSq - n*m*m) / (n - 1)
	if v < 0 { // guard tiny negative from rounding
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Percentile returns the p-th percentile (0 <= p <= 100) using nearest-rank
// on the sorted data. It returns 0 for an empty summary.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g max=%.4g",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Median(), s.Max())
}

// Gini returns the Gini coefficient of the given non-negative values: 0
// for perfect equality, approaching 1 for total concentration. Used as the
// fairness metric for per-node energy expenditure (the §7 balanced-energy
// goal). It returns 0 for fewer than two values or an all-zero input, and
// panics on negative values.
func Gini(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		panic("stats: Gini of negative value")
	}
	var cum, total float64
	for i, v := range sorted {
		cum += v * float64(i+1)
		total += v
	}
	if total == 0 {
		return 0
	}
	// G = (2·Σ i·x_(i) )/(n·Σx) - (n+1)/n
	return 2*cum/(float64(n)*total) - float64(n+1)/float64(n)
}
