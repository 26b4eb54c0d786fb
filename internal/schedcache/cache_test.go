package schedcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestGetBuildsAndCaches(t *testing.T) {
	c := New(8)
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5}
	s1, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.IsAlphaSchedule(3, 5) {
		t.Fatal("constructed schedule violates the (3,5) caps")
	}
	if !core.IsTopologyTransparent(s1, 2) {
		t.Fatal("constructed schedule is not topology-transparent")
	}
	s2, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second Get did not return the cached schedule")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Constructions != 1 || st.Entries != 1 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}
	want, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if want.L() != s1.L() || want.N() != s1.N() {
		t.Fatalf("cached schedule differs from direct Build: L %d vs %d", s1.L(), want.L())
	}
}

func TestGetNonSleepingKey(t *testing.T) {
	c := New(4)
	s, err := c.Get(Key{N: 9, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsNonSleeping() {
		t.Fatal("zero-cap key should yield the non-sleeping base schedule")
	}
}

func TestKeyValidate(t *testing.T) {
	bad := []Key{
		{N: 1, D: 1},
		{N: MaxN + 1, D: 2}, // above the serving bound
		{N: 9, D: 0},
		{N: 9, D: 9},
		{N: 9, D: 2, AlphaT: 3}, // alphaR missing
		{N: 9, D: 2, AlphaR: 5}, // alphaT missing
		{N: 9, D: 2, AlphaT: -1, AlphaR: -1},
		{N: 9, D: 2, Strategy: 99},
	}
	for _, k := range bad {
		if _, err := New(2).Get(k); err == nil {
			t.Errorf("Get(%+v) accepted an invalid key", k)
		}
	}
	st := New(2).Stats()
	if st.Constructions != 0 {
		t.Fatalf("invalid keys must not reach construction: %+v", st)
	}
}

// TestTrustedLimits pins the serving/trusted split: the same key that the
// network-facing bounds reject builds fine under TrustedLimits.
func TestTrustedLimits(t *testing.T) {
	k := Key{N: MaxN + 1, D: 2}
	if _, err := New(2).Get(k); err == nil {
		t.Fatal("serving cache accepted n above MaxN")
	}
	s, err := BuildLimited(k, TrustedLimits)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() < k.N {
		t.Fatalf("trusted build covers %d nodes, want >= %d", s.N(), k.N)
	}
	// Trusted is not unbounded: a typo-sized class still fails fast.
	if _, err := BuildLimited(Key{N: TrustedLimits.MaxN + 1, D: 2}, TrustedLimits); err == nil {
		t.Fatal("trusted build accepted n above TrustedLimits.MaxN")
	}
}

func TestConstructionErrorNotCached(t *testing.T) {
	c := New(4)
	// αT + αR > n is rejected by Construct after the (cheap) base build.
	k := Key{N: 9, D: 2, AlphaT: 8, AlphaR: 8}
	if _, err := c.Get(k); err == nil {
		t.Fatal("infeasible key accepted")
	}
	if _, err := c.Get(k); err == nil {
		t.Fatal("infeasible key accepted on retry")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("error cached: %+v", st)
	}
	if st.Errors != 2 || st.Constructions != 2 {
		t.Fatalf("expected 2 failed constructions, got %+v", st)
	}
}

// TestBuildBudget asserts that classes whose n×L footprint would be
// pathological are rejected from closed forms, quickly, before any
// materialization — a hostile GET must not pin the server.
func TestBuildBudget(t *testing.T) {
	cases := []Key{
		// A large degree bound forces q > D, so L = q² explodes even at
		// modest n.
		{N: MaxN, D: 1000},
		// αT = αR = 1 inflates the Theorem 7 frame by ~n per base slot.
		{N: 4096, D: 2, AlphaT: 1, AlphaR: 1},
	}
	for _, k := range cases {
		_, err := New(2).Get(k)
		if err == nil {
			t.Errorf("Get(%+v) accepted a key past the build budget", k)
			continue
		}
		if !strings.Contains(err.Error(), "build budget") {
			t.Errorf("Get(%+v) error %q does not mention the build budget", k, err)
		}
	}
}

// TestBuildBudgetNoOverflow: the budget holds where n×L leaves the int64
// range. At TrustedLimits' largest class, N(2^21, 2^21-1), the polynomial
// base needs q = 2^21 and so 2^42 slots (its closed form says so, after a
// parameter search too slow for this suite); n×L = 2^63 would wrap
// negative and pass a multiplied check.
func TestBuildBudgetNoOverflow(t *testing.T) {
	k := Key{N: TrustedLimits.MaxN, D: TrustedLimits.MaxN - 1}
	if err := TrustedLimits.Validate(k); err != nil {
		t.Fatal(err)
	}
	err := TrustedLimits.CheckBase(k, 1<<42)
	if err == nil || !strings.Contains(err.Error(), "n×L = 9223372036854775808 exceeds the build budget") {
		t.Fatalf("CheckBase(%+v, 2^42) = %v, want the budget error", k, err)
	}
}

// TestSingleflight launches 100 goroutines at one missing key and asserts
// exactly one construction ran and every caller got the same pointer.
// Must pass under -race.
func TestSingleflight(t *testing.T) {
	c := New(8)
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5}
	const goroutines = 100
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		seen  = make(map[*core.Schedule]int)
	)
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			s, err := c.Get(k)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen[s]++
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()
	if len(seen) != 1 {
		t.Fatalf("goroutines saw %d distinct schedules, want 1", len(seen))
	}
	st := c.Stats()
	if st.Constructions != 1 {
		t.Fatalf("%d constructions for one key under concurrency, want 1", st.Constructions)
	}
	if st.Misses+st.Hits != goroutines {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d", st.Inflight)
	}
}

// TestConcurrentMixedKeysLRUBound hammers a capacity-4 cache with 8
// distinct keys from many goroutines and asserts the entry bound holds
// throughout and afterwards, with exactly one construction per key per
// residency (no duplicate inflight builds). Must pass under -race.
func TestConcurrentMixedKeysLRUBound(t *testing.T) {
	const capacity = 4
	c := New(capacity)
	keys := make([]Key, 8)
	for i := range keys {
		// Distinct (αT, αR) pairs over one base so construction stays cheap.
		keys[i] = Key{N: 16, D: 2, AlphaT: 1 + i%3, AlphaR: 2 + i/3}
	}
	var done sync.WaitGroup
	const goroutines = 64
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			for i := 0; i < 20; i++ {
				k := keys[(g+i)%len(keys)]
				if _, err := c.Get(k); err != nil {
					t.Errorf("Get(%+v): %v", k, err)
					return
				}
				if n := c.Len(); n > capacity {
					t.Errorf("cache holds %d entries, capacity %d", n, capacity)
					return
				}
			}
		}(g)
	}
	done.Wait()
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("final entries %d exceed capacity %d", st.Entries, capacity)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d", st.Inflight)
	}
	if st.Evictions == 0 {
		t.Fatal("8 keys through a capacity-4 cache must evict")
	}
	if st.Hits+st.Misses != goroutines*20 {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*20)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2)
	a := Key{N: 9, D: 2, AlphaT: 1, AlphaR: 2}
	b := Key{N: 9, D: 2, AlphaT: 1, AlphaR: 3}
	d := Key{N: 9, D: 2, AlphaT: 1, AlphaR: 4}
	for _, k := range []Key{a, b} {
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(d); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	// a must still be cached (a hit), b must have been evicted (a miss).
	pre := c.Stats().Constructions
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Constructions; got != pre {
		t.Fatal("recently-used key was evicted")
	}
	if _, err := c.Get(b); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Constructions; got != pre+1 {
		t.Fatal("least-recently-used key was not evicted")
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]core.DivisionStrategy{
		"": core.Sequential, "seq": core.Sequential, "sequential": core.Sequential,
		"bal": core.Balanced, "balanced": core.Balanced,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("zigzag"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if StrategyName(core.Balanced) != "balanced" || StrategyName(core.Sequential) != "sequential" {
		t.Fatal("StrategyName mismatch")
	}
}

// FuzzCacheGet hardens Get against arbitrary keys: no input may panic,
// valid keys must construct schedules honouring their caps, and a second
// Get must hit the cache.
func FuzzCacheGet(f *testing.F) {
	f.Add(9, 2, 0, 0, 0)
	f.Add(25, 2, 3, 5, 0)
	f.Add(16, 3, 2, 4, 1)
	f.Add(0, 0, -1, -1, 99)
	f.Add(4, 3, 8, 8, 0)
	f.Fuzz(func(t *testing.T, n, d, alphaT, alphaR, strategy int) {
		// Bound the work, not the validity checks.
		if n > 30 || d > 4 || alphaT > 8 || alphaR > 8 {
			return
		}
		c := New(2)
		k := Key{N: n, D: d, AlphaT: alphaT, AlphaR: alphaR, Strategy: core.DivisionStrategy(strategy)}
		s, err := c.Get(k)
		if err != nil {
			return
		}
		if alphaT > 0 && !s.IsAlphaSchedule(alphaT, alphaR) {
			t.Fatalf("schedule for %+v violates its caps", k)
		}
		s2, err := c.Get(k)
		if err != nil || s2 != s {
			t.Fatalf("repeat Get for %+v: %v", k, err)
		}
		if st := c.Stats(); st.Hits != 1 || st.Constructions != 1 {
			t.Fatalf("stats after build+hit: %+v", st)
		}
	})
}

func BenchmarkCacheGetWarm(b *testing.B) {
	c := New(8)
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5}
	if _, err := c.Get(k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCold(b *testing.B) {
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5}
	for i := 0; i < b.N; i++ {
		if _, err := Build(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildColdCampaign is BuildCold at the size of one saturation
// class of the campaign benchmark: the polynomial base for N(8400, 3) and
// Construct's (250, 2000)-schedule over it (L = 1936). Neither schedule's
// per-node views are derived; the campaign's saturation kernel pays for
// the output's on first read.
func BenchmarkBuildColdCampaign(b *testing.B) {
	k := Key{N: 8400, D: 3, AlphaT: 250, AlphaR: 2000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildLimited(k, TrustedLimits); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleCache_Get() {
	c := New(16)
	s, _ := c.Get(Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5})
	fmt.Println(s.N(), s.IsAlphaSchedule(3, 5))
	// Output: 25 true
}

func TestKeyCanonical(t *testing.T) {
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: core.Balanced}
	want := "n=25&D=2&alphaT=3&alphaR=5&strategy=balanced"
	if got := k.Canonical(); got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
	base := Key{N: 9, D: 2}
	if got := base.Canonical(); got != "n=9&D=2&alphaT=0&alphaR=0&strategy=sequential" {
		t.Fatalf("base Canonical() = %q", got)
	}
	if base.Canonical() == k.Canonical() {
		t.Fatal("distinct keys share a canonical form")
	}
}

// liveBytes recomputes the footprint of the cached entries from scratch.
func liveBytes(c *Cache[*core.Schedule]) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, el := range c.entries {
		e := el.Value.(*entry[*core.Schedule])
		if e.bytes != ScheduleBytes(e.v) {
			return -1
		}
		total += e.bytes
	}
	return total
}

func TestBytesAccounting(t *testing.T) {
	c := New(2)
	keys := []Key{
		{N: 9, D: 2},
		{N: 9, D: 2, AlphaT: 2, AlphaR: 4},
		{N: 16, D: 2, AlphaT: 2, AlphaR: 4},
	}
	var want []int64
	for _, k := range keys {
		s, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		b := ScheduleBytes(s)
		if b <= 0 {
			t.Fatalf("ScheduleBytes(%+v) = %d", k, b)
		}
		want = append(want, b)
	}
	st := c.Stats()
	// Capacity 2: the first key was evicted, the last two are live.
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != want[1]+want[2] {
		t.Fatalf("Bytes = %d, want %d+%d", st.Bytes, want[1], want[2])
	}
	if st.EvictedBytes != want[0] {
		t.Fatalf("EvictedBytes = %d, want %d", st.EvictedBytes, want[0])
	}
	if got := liveBytes(c); got != st.Bytes {
		t.Fatalf("recomputed live bytes %d != Stats.Bytes %d", got, st.Bytes)
	}
	// A bigger schedule costs more: the estimate must be monotone in n×L.
	if want[2] <= want[1] {
		t.Fatalf("ScheduleBytes not monotone: n=16 %d <= n=9 %d", want[2], want[1])
	}
}

// TestConcurrentGetEvictBytes hammers a capacity-2 cache from many
// goroutines over a key set that does not fit, so inserts and evictions
// race continuously; afterwards the byte ledger must balance exactly
// against the surviving entries. Run under -race (make race-conc).
func TestConcurrentGetEvictBytes(t *testing.T) {
	c := New(2)
	keys := []Key{
		{N: 9, D: 2},
		{N: 9, D: 2, AlphaT: 2, AlphaR: 4},
		{N: 9, D: 2, AlphaT: 2, AlphaR: 4, Strategy: core.Balanced},
		{N: 16, D: 2, AlphaT: 2, AlphaR: 4},
		{N: 9, D: 3, AlphaT: 1, AlphaR: 1},
	}
	const workers = 16
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := c.Get(keys[(w+i)%len(keys)]); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	if got := liveBytes(c); got < 0 || got != st.Bytes {
		t.Fatalf("byte ledger off: recomputed %d, Stats.Bytes %d", got, st.Bytes)
	}
	if st.EvictedBytes <= 0 || st.Evictions <= 0 {
		t.Fatalf("expected evictions under pressure: %+v", st)
	}
}

func TestPredictedCells(t *testing.T) {
	base, err := Build(Key{N: 25, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := PredictedCells(Key{N: 25, D: 2}, base); got != int64(25*base.L()) {
		t.Fatalf("base PredictedCells = %d, want %d", got, 25*base.L())
	}
	// The Theorem 7 prediction must match what Construct actually builds.
	k := Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5}
	duty, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PredictedCells(k, base), int64(25*duty.L()); got != want {
		t.Fatalf("PredictedCells = %d, but the built schedule occupies %d", got, want)
	}
}
