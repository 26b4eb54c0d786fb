package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// TestArtifactCacheByteBudget pins the artifact cache's byte bound: the
// resident encoded bytes never exceed the budget, evictions are counted in
// both entries and bytes, and the budget is visible in the stats (and so
// in /metrics).
func TestArtifactCacheByteBudget(t *testing.T) {
	// Measure one artifact to size the budget relative to real payloads.
	probe := NewService(8)
	a, _, err := probe.Artifact(schedcache.Key{N: 9, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	unit := int64(len(a.Wire) + len(a.JSON))
	if unit == 0 {
		t.Fatal("empty artifact")
	}

	// Room for roughly two n=9 artifacts; the larger classes below must
	// push earlier entries out.
	budget := 2*unit + unit/2
	svc := NewServiceBytes(8, budget)
	keys := []schedcache.Key{{N: 9, D: 2}, {N: 16, D: 2}, {N: 25, D: 2}, {N: 36, D: 2}}
	for _, k := range keys {
		if _, _, err := svc.Artifact(k); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Cache().Stats()
	if st.CapacityBytes != budget {
		t.Fatalf("CapacityBytes = %d, want %d", st.CapacityBytes, budget)
	}
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed the %d budget", st.Bytes, budget)
	}
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("expected byte-bound evictions, got %+v", st)
	}
	if st.Entries >= int64(len(keys)) {
		t.Fatalf("all %d entries resident under a ~2-entry byte budget: %+v", len(keys), st)
	}

	// An evicted key is rebuilt on demand — a miss, not an error.
	misses := st.Misses
	if _, warm, err := svc.Artifact(keys[0]); err != nil {
		t.Fatal(err)
	} else if warm {
		t.Fatal("evicted artifact reported as a warm hit")
	}
	if got := svc.Cache().Stats().Misses; got != misses+1 {
		t.Fatalf("Misses = %d after rebuilding an evicted key, want %d", got, misses+1)
	}

	// An artifact larger than the whole budget is served but never cached:
	// the ceiling is hard.
	tiny := NewServiceBytes(8, unit-1)
	if _, _, err := tiny.Artifact(schedcache.Key{N: 9, D: 2}); err != nil {
		t.Fatal(err)
	}
	if st := tiny.Cache().Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized artifact stayed resident: %+v", st)
	}
}

// TestArtifactBytesBoundSchedules: the byte budget bounds the schedules
// the cache holds, not just their encodings. The keys' schedules alone
// outweigh the budget several times over; what stays resident, schedules
// included, is within it, and the most recent key fits and stays.
func TestArtifactBytesBoundSchedules(t *testing.T) {
	const budget = 1 << 20
	svc := NewServiceBytes(64, budget)
	var scheduleBytes int64
	for n := 124; n >= 64; n -= 10 {
		a, _, err := svc.Artifact(schedcache.Key{N: n, D: 2, AlphaT: 2, AlphaR: 4})
		if err != nil {
			t.Fatal(err)
		}
		scheduleBytes += schedcache.ScheduleBytes(a.Frame.Schedule)
	}
	if scheduleBytes <= 2*budget {
		t.Fatalf("the keys' schedules total %d bytes; the test needs well over the %d budget", scheduleBytes, budget)
	}
	st := svc.Cache().Stats()
	if st.Bytes > budget {
		t.Fatalf("%d bytes resident, schedules included, exceed the %d budget: %+v", st.Bytes, budget, st)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("want the last key resident and earlier ones evicted: %+v", st)
	}
}

// ringLattice returns the ring benchmark's key universe (_perfbench's
// ringUniverseFor, unshuffled): every key of a lattice of small classes
// and duty caps that a fresh service builds within 40000 node-slots.
func ringLattice(tb testing.TB) []schedcache.Key {
	tb.Helper()
	var keys []schedcache.Key
	for _, n := range []int{9, 12, 16, 20, 25, 30, 36, 49, 64} {
		for _, d := range []int{2, 3} {
			for at := 1; at <= 4; at++ {
				for _, mul := range []int{1, 2, 3} {
					for _, st := range []core.DivisionStrategy{core.Sequential, core.Balanced} {
						k := schedcache.Key{N: n, D: d, AlphaT: at, AlphaR: at * mul, Strategy: st}
						a, _, err := NewService(1).Artifact(k)
						if err != nil || k.N*a.Frame.Schedule.L() > 40000 {
							continue
						}
						keys = append(keys, k)
					}
				}
			}
		}
	}
	if len(keys) != 304 {
		tb.Fatalf("ring lattice has %d keys, want 304", len(keys))
	}
	return keys
}

// BenchmarkArtifactCold is the ring's cold miss path, one pass over its
// 304-key lattice per iteration: each key goes to a fresh service, so
// every Artifact call builds the base, runs Construct, takes the
// Theorem 2 closed form and appends both encodings.
func BenchmarkArtifactCold(b *testing.B) {
	keys := ringLattice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, _, err := NewService(1).Artifact(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}
