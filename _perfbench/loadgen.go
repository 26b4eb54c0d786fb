package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// openLoop runs n operations on a fixed schedule: operation i is due at
// start + i/rate whether or not earlier ones have finished, and workers
// goroutines take due operations in order. op(w, i) performs operation i
// on worker w and returns once its response is drained. Each operation is
// timed from its due time, so a stall also charges the wait it imposes on
// the operations queued behind it; late[i] is how long after its due time
// operation i was sent.
func openLoop(n, workers int, rate float64, op func(w, i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				waitUntil(due)
				late[i] = time.Since(due)
				op(w, i)
				lat[i] = time.Since(due)
			}
		}(w)
	}
	wg.Wait()
	return lat, late
}

// closedLoop runs n operations back to back: workers goroutines each
// take the next operation as soon as their last one is drained. It returns
// the time from the first send to the last drained response.
func closedLoop(n, workers int, op func(w, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// waitUntil returns at due. Timers on this kind of host fire up to a
// millisecond late, which would dominate a sub-millisecond request, so the
// last stretch is a yielding spin rather than a sleep. The spin keeps both
// processors busy, so a request's latency carries no wake-up of an idle
// virtual CPU, whose cost swings with the host's load and would make the
// tail far less repeatable. The cost is that the peers share the
// processors with the spinning client, which raises p50 above what an
// idle client would see.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	sort.Float64s(xs)
	return xs
}

// zipfCDF is the cumulative distribution of 1/rank^s over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// stratifiedRanks draws n ranks from cdf, the i-th at a point drawn
// uniformly from [i/n, (i+1)/n), and shuffles them. Each rank then occurs
// within two of n times its probability, so the work a list carries
// hardly depends on the stream; only which rare ranks occur, and the
// order, do.
func stratifiedRanks(rng *stats.RNG, cdf []float64, n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		u := (float64(i) + rng.Float64()) / float64(n)
		ranks[i] = min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	return ranks
}
