package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// countingBuild wraps a real schedule cache so warms construct genuine
// schedules while the test observes exactly which keys were built.
func countingBuild(c *schedcache.Cache[*core.Schedule]) (func(schedcache.Key) (*core.Schedule, error), *sync.Map, *atomic.Int64) {
	var keys sync.Map
	var calls atomic.Int64
	return func(k schedcache.Key) (*core.Schedule, error) {
		calls.Add(1)
		keys.Store(k, true)
		return c.Get(k)
	}, &keys, &calls
}

func TestWarmerWalksLattice(t *testing.T) {
	build, keys, _ := countingBuild(schedcache.New(64))
	w, err := NewWarmer(WarmerConfig{
		Classes:   []Class{{N: 9, D: 2}},
		MaxAlphaT: 2, MaxAlphaR: 2,
		Concurrency: 4,
		Build:       build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	// Base + the 2x2 duty lattice: 5 points, all feasible at n=9.
	if snap.Planned != 5 || snap.Warmed != 5 || snap.Failed != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !snap.Done || snap.SkippedOwnership != 0 || snap.SkippedBudget != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.CellsWarmed <= 0 || snap.CellsWarmed != snap.CellsPlanned {
		t.Fatalf("cell accounting: %+v", snap)
	}
	for at := 1; at <= 2; at++ {
		for ar := 1; ar <= 2; ar++ {
			k := schedcache.Key{N: 9, D: 2, AlphaT: at, AlphaR: ar}
			if _, ok := keys.Load(k); !ok {
				t.Errorf("lattice point %+v never built", k)
			}
		}
	}
}

func TestWarmerBuildIsRequired(t *testing.T) {
	if _, err := NewWarmer(WarmerConfig{Classes: []Class{{N: 9, D: 2}}}); err == nil {
		t.Fatal("warmer without Build accepted")
	}
	if _, err := NewWarmer(WarmerConfig{Build: func(schedcache.Key) (*core.Schedule, error) { return nil, nil }}); err == nil {
		t.Fatal("warmer without classes accepted")
	}
	if _, err := NewWarmer(WarmerConfig{
		Build:   func(schedcache.Key) (*core.Schedule, error) { return nil, nil },
		Classes: []Class{{N: 2, D: 9}}, // D > n-1: invalid key
	}); err == nil {
		t.Fatal("invalid class accepted")
	}
	if _, err := NewWarmer(WarmerConfig{
		Build:      func(schedcache.Key) (*core.Schedule, error) { return nil, nil },
		Classes:    []Class{{N: 9, D: 2}},
		ByteBudget: 1, // needs Stats
	}); err == nil {
		t.Fatal("ByteBudget without Stats accepted")
	}
}

func TestWarmerOwnershipFilter(t *testing.T) {
	build, _, _ := countingBuild(schedcache.New(64))
	w, err := NewWarmer(WarmerConfig{
		Classes:   []Class{{N: 9, D: 2}},
		MaxAlphaT: 2, MaxAlphaR: 2,
		Build: build,
		Owns:  func(k schedcache.Key) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	// The base always warms locally (it feeds the Theorem 7 prediction);
	// every duty point is someone else's.
	if snap.Warmed != 1 || snap.SkippedOwnership != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWarmerCellBudget(t *testing.T) {
	build, _, _ := countingBuild(schedcache.New(64))
	w, err := NewWarmer(WarmerConfig{
		Classes:   []Class{{N: 9, D: 2}},
		MaxAlphaT: 2, MaxAlphaR: 2,
		CellBudget: 1, // below any duty point's n*L footprint
		Build:      build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Warmed != 1 || snap.SkippedBudget != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWarmerByteBudgetStops(t *testing.T) {
	build, _, calls := countingBuild(schedcache.New(64))
	w, err := NewWarmer(WarmerConfig{
		Classes:   []Class{{N: 9, D: 2}},
		MaxAlphaT: 3, MaxAlphaR: 3,
		ByteBudget: 1,
		Stats:      func() schedcache.Stats { return schedcache.Stats{Bytes: 100} },
		Build:      build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if !snap.StoppedByBytes {
		t.Fatalf("byte budget did not trip: %+v", snap)
	}
	// Only the class base was built before the first lattice check.
	if calls.Load() != 1 || snap.Warmed != 1 {
		t.Fatalf("calls = %d, snapshot = %+v", calls.Load(), snap)
	}
}

func TestWarmerContextCancel(t *testing.T) {
	build, _, _ := countingBuild(schedcache.New(64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := NewWarmer(WarmerConfig{
		Classes: []Class{{N: 9, D: 2}},
		Build:   build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if snap := w.Snapshot(); !snap.Done {
		t.Fatal("cancelled run not marked done")
	}
}

// TestWarmerInfeasibleClass: a class with no admissible construction
// counts one failure and does not abort the pass for other classes.
func TestWarmerInfeasibleClass(t *testing.T) {
	build, _, _ := countingBuild(schedcache.New(64))
	w, err := NewWarmer(WarmerConfig{
		Classes:   []Class{{N: 65535, D: 8000}, {N: 9, D: 2}}, // first is past the build budget
		MaxAlphaT: 1, MaxAlphaR: 1,
		Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", snap.Failed, snap)
	}
	// The healthy class still warmed: base + (1,1).
	if snap.Warmed != 2 {
		t.Fatalf("warmed = %d, want 2: %+v", snap.Warmed, snap)
	}
}
