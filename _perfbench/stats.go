package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// and false when fewer than minBeyond samples lie above that rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle of xs (the mean of the middle two for an even
// count) without reordering xs; it is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuStat is a reading of the host's CPU time counters.
type cpuStat struct{ busy, steal int64 }

// readCPU reads /proc/stat: busy is user, nice, system, irq and softirq
// time; steal is time the hypervisor ran other tenants while this VM
// wanted a CPU. Both are zero where the file is missing.
func readCPU() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return cpuStat{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stealShare is the share of the CPU time wanted between a and b that the
// hypervisor gave to other tenants.
func stealShare(a, b cpuStat) float64 {
	ds := float64(b.steal - a.steal)
	return ratio(ds, ds+float64(b.busy-a.busy))
}

// quietIdx returns the indices of the half of the samples (rounded up)
// measured under the least steal, and of every further sample with as
// little steal as the last one kept, so a quiet host keeps them all. On a
// shared host a neighbour's load can slow a whole window several-fold; no
// change to the program moves steal, so the benchmark reports its medians
// over the samples the host left alone.
func quietIdx(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steal[idx[keep]] == steal[idx[keep-1]] {
		keep++
	}
	return idx[:keep]
}

// quietest keeps the values of quietIdx(steal).
func quietest(values, steal []float64) []float64 {
	var out []float64
	for _, i := range quietIdx(steal) {
		out = append(out, values[i])
	}
	return out
}
