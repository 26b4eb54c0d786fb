package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStall: with one worker, a request that stalls delays
// every request due during the stall; the open loop must charge that wait
// to their latency and show it in the generator's lateness.
func TestOpenLoopChargesStall(t *testing.T) {
	const n, rate, stallAt = 1500, 2000.0, 100
	const stall = 40 * time.Millisecond
	run := func(stallOn int) (lat, late []time.Duration) {
		lat, late = openLoop(n, 1, rate, func(w, i int) {
			if i == stallOn {
				time.Sleep(stall)
			}
		})
		return lat, late
	}
	_, baseLate := run(-1)
	lat, late := run(stallAt)

	// Request stallAt+1 was due 0.5 ms into the stall.
	if lat[stallAt+1] < stall-5*time.Millisecond {
		t.Errorf("request after the stall took %v from its due time, want about %v", lat[stallAt+1], stall)
	}
	base, ok1 := percentile(msSorted(baseLate), 0.99)
	stalled, ok2 := percentile(msSorted(late), 0.99)
	if !ok1 || !ok2 {
		t.Fatal("too few samples for a p99")
	}
	if stalled < base+10 {
		t.Errorf("lateness p99 %.3f ms with a %v stall, %.3f ms without", stalled, stall, base)
	}
}
