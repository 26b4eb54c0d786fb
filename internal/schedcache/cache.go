// Package schedcache memoizes schedule construction. Schedules are pure
// functions of (n, D, αT, αR, strategy), and building one — polynomial
// cover-free family over GF(q) plus the paper's Construct algorithm — is
// orders of magnitude more expensive than a map lookup, so a serving
// deployment wants every distinct key built exactly once.
//
// Cache is a concurrency-safe, size-bounded (LRU by entry count) cache
// with singleflight-style deduplication: N concurrent Gets for the same
// missing key trigger exactly one construction, and the other N-1 callers
// block until the leader finishes and then share its result. Construction
// errors are returned to every waiter but never cached, so a transient
// bad key does not poison the table. Hit/miss/eviction/construction
// counters are maintained atomically and exposed via Stats.
package schedcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cff"
	"repro/internal/core"
)

// Key identifies a schedule request. AlphaT = AlphaR = 0 requests the
// topology-transparent non-sleeping base schedule for N(n, D); otherwise
// both caps must be >= 1 and the paper's Construct algorithm converts the
// base into an (αT, αR)-schedule using the given division strategy.
type Key struct {
	N, D           int
	AlphaT, AlphaR int
	Strategy       core.DivisionStrategy
}

// MaxN bounds the class size a cache will construct. Untrusted callers
// (the HTTP API) reach construction through Get, and an unbounded n lets
// one request allocate per-slot bitsets for an arbitrarily large node
// universe.
const MaxN = 1 << 16

// maxBuildCells bounds the n×L footprint of any schedule this package
// will construct, base or duty-cycled. n×L is the first-order cost of a
// schedule in both time and memory (per-slot and per-node bitset views),
// and — unlike n alone — it also catches degree bounds that force a huge
// field: L = q² with q > D, so a large D inflates the frame even for
// modest n. Checked against closed forms before any materialization, so
// rejection is O(1)-ish, never a partial build.
const maxBuildCells = 1 << 26

// Limits bounds what a cache will validate and construct. The right
// bounds depend on who is asking: a serving deployment takes keys from
// the network and must cap what one request can allocate, while an
// operator running a local campaign asked for that footprint on purpose.
type Limits struct {
	// MaxN bounds the class size n.
	MaxN int
	// MaxCells bounds the n×L schedule footprint, checked against closed
	// forms before any materialization.
	MaxCells int64
}

// ServingLimits is the default: sized for untrusted input (the HTTP
// serving tier), where one request must not allocate a million-node
// schedule.
var ServingLimits = Limits{MaxN: MaxN, MaxCells: maxBuildCells}

// TrustedLimits is for operator-driven local tooling (ttdcbatch,
// ttdcsweep): wide enough for the million-node scale campaigns the CSR
// topologies and sharded kernels make tractable — n = 10^6 at d = 4
// resolves to L = 289, ~3·10^8 cells — while still refusing typo-sized
// grids.
var TrustedLimits = Limits{MaxN: 1 << 21, MaxCells: 1 << 31}

// Validate reports whether the key can possibly name a schedule within
// the serving bounds; Limits.Validate takes explicit bounds.
func (k Key) Validate() error { return ServingLimits.Validate(k) }

// Validate reports whether the key can possibly name a schedule within
// lim, before any construction work is attempted.
func (lim Limits) Validate(k Key) error {
	if k.N < 2 {
		return fmt.Errorf("schedcache: n = %d < 2", k.N)
	}
	if k.N > lim.MaxN {
		return fmt.Errorf("schedcache: n = %d exceeds the serving bound %d", k.N, lim.MaxN)
	}
	if k.D < 1 || k.D > k.N-1 {
		return fmt.Errorf("schedcache: D = %d outside [1, %d]", k.D, k.N-1)
	}
	if (k.AlphaT == 0) != (k.AlphaR == 0) {
		return fmt.Errorf("schedcache: set both alphaT and alphaR or neither (got %d, %d)", k.AlphaT, k.AlphaR)
	}
	if k.AlphaT < 0 || k.AlphaR < 0 {
		return fmt.Errorf("schedcache: negative caps (%d, %d)", k.AlphaT, k.AlphaR)
	}
	if k.Strategy != core.Sequential && k.Strategy != core.Balanced {
		return fmt.Errorf("schedcache: unknown division strategy %d", int(k.Strategy))
	}
	return nil
}

// Canonical renders k in its canonical query-string form. Every process
// that needs a deterministic, platform-independent identity for a cache
// key — most importantly the consistent-hash ring deciding which serving
// peer owns k — hashes exactly this string, so its layout is part of the
// fleet protocol: changing it reshuffles ownership of the entire keyspace.
func (k Key) Canonical() string {
	return fmt.Sprintf("n=%d&D=%d&alphaT=%d&alphaR=%d&strategy=%s",
		k.N, k.D, k.AlphaT, k.AlphaR, StrategyName(k.Strategy))
}

// ParseStrategy maps the wire names of the division strategies ("seq",
// "sequential", "bal", "balanced", or empty for the default) onto
// core.DivisionStrategy values.
func ParseStrategy(s string) (core.DivisionStrategy, error) {
	switch s {
	case "", "seq", "sequential":
		return core.Sequential, nil
	case "bal", "balanced":
		return core.Balanced, nil
	default:
		return 0, fmt.Errorf("schedcache: unknown division strategy %q", s)
	}
}

// StrategyName is the inverse of ParseStrategy, for display.
func StrategyName(s core.DivisionStrategy) string {
	if s == core.Balanced {
		return "balanced"
	}
	return "sequential"
}

// Stats is an atomic snapshot of cache counters.
type Stats struct {
	// Hits counts Gets served from a cached entry.
	Hits int64
	// Misses counts Gets that found no cached entry — both construction
	// leaders and callers coalesced onto another caller's construction.
	Misses int64
	// Inflight is the number of constructions running right now.
	Inflight int64
	// Evictions counts entries dropped to keep the cache within capacity.
	Evictions int64
	// Constructions counts actual construction runs; with perfect
	// deduplication this equals the number of distinct keys ever built.
	Constructions int64
	// Errors counts constructions that failed (failures are not cached).
	Errors int64
	// Entries is the current number of cached schedules.
	Entries int64
	// Bytes is the estimated memory footprint of all cached schedules
	// (see ScheduleBytes). The background warmer reads this against its
	// byte budget so precomputation stops before it starts evicting the
	// very entries it just warmed.
	Bytes int64
	// EvictedBytes accumulates the estimated footprint of every entry
	// evicted so far; Bytes + EvictedBytes is the total ever inserted.
	EvictedBytes int64
}

// call is a pending construction that concurrent Gets coalesce onto.
type call struct {
	done chan struct{}
	s    *core.Schedule
	err  error
}

type entry struct {
	key   Key
	s     *core.Schedule
	bytes int64
}

// Cache is a memoizing schedule cache. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Cache struct {
	capacity int
	limits   Limits

	mu       sync.Mutex
	lru      *list.List // front = most recently used; element values are *entry
	entries  map[Key]*list.Element
	inflight map[Key]*call
	bytes    int64 // estimated footprint of live entries; guarded by mu
	evicted  int64 // estimated footprint of evicted entries; guarded by mu

	hits, misses, evictions, constructions, errors, inflightN atomic.Int64
}

// DefaultCapacity bounds the cache when New is given a non-positive size.
const DefaultCapacity = 1024

// New returns a cache holding at most capacity schedules (DefaultCapacity
// when capacity <= 0), bounded by ServingLimits.
func New(capacity int) *Cache { return NewWithLimits(capacity, ServingLimits) }

// NewTrusted is New with TrustedLimits: for local operator tooling whose
// keys were typed by the person who will watch the memory they allocate.
func NewTrusted(capacity int) *Cache { return NewWithLimits(capacity, TrustedLimits) }

// NewWithLimits returns a cache holding at most capacity schedules
// (DefaultCapacity when capacity <= 0) validating keys against lim.
func NewWithLimits(capacity int, lim Limits) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		limits:   lim,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// Capacity returns the maximum number of cached schedules.
func (c *Cache) Capacity() int { return c.capacity }

// Limits returns the validation bounds this cache was built with.
func (c *Cache) Limits() Limits { return c.limits }

// Len returns the current number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := int64(len(c.entries))
	bytes, evicted := c.bytes, c.evicted
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Inflight:      c.inflightN.Load(),
		Evictions:     c.evictions.Load(),
		Constructions: c.constructions.Load(),
		Errors:        c.errors.Load(),
		Entries:       entries,
		Bytes:         bytes,
		EvictedBytes:  evicted,
	}
}

// Get returns the schedule for k, constructing and caching it on first
// use. Concurrent Gets for the same missing key run one construction; the
// rest wait and share the result. Schedules are immutable — callers may
// share the returned pointer freely but must not mutate through unsafe
// means.
func (c *Cache) Get(k Key) (*core.Schedule, error) {
	if err := c.limits.Validate(k); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry).s, nil
	}
	c.misses.Add(1)
	if cl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.s, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[k] = cl
	c.inflightN.Add(1)
	c.mu.Unlock()

	c.constructions.Add(1)
	s, err := BuildLimited(k, c.limits)

	c.mu.Lock()
	delete(c.inflight, k)
	c.inflightN.Add(-1)
	if err != nil {
		c.errors.Add(1)
	} else {
		c.insertLocked(k, s)
	}
	c.mu.Unlock()

	cl.s, cl.err = s, err
	close(cl.done)
	return s, err
}

// insertLocked adds (k, s) as the most recently used entry and evicts
// from the LRU tail past capacity. Caller holds c.mu.
func (c *Cache) insertLocked(k Key, s *core.Schedule) {
	if el, ok := c.entries[k]; ok { // lost a race with another inserter
		c.lru.MoveToFront(el)
		return
	}
	b := ScheduleBytes(s)
	c.entries[k] = c.lru.PushFront(&entry{key: k, s: s, bytes: b})
	c.bytes += b
	for len(c.entries) > c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		e := tail.Value.(*entry)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evicted += e.bytes
		c.evictions.Add(1)
	}
}

// ScheduleBytes estimates the resident footprint of one cached schedule:
// the 2L per-slot bitsets over n nodes, the 2n per-node bitsets over L
// slots, and a fixed per-set overhead (struct + slice header + pointer).
// The per-node views are derived only when something first reads them
// (a served schedule never does), so for such a schedule this is an
// upper bound.
// It is an estimate — Go rounds allocations to size classes — but it is
// monotone in n×L, which is what budget decisions need.
func ScheduleBytes(s *core.Schedule) int64 {
	n, l := int64(s.N()), int64(s.L())
	const setOverhead = 56
	slotWords := (n + 63) / 64
	nodeWords := (l + 63) / 64
	sets := 2*l + 2*n
	return 8*(2*l*slotWords+2*n*nodeWords) + sets*setOverhead
}

// BaseFrameLength returns the closed-form frame length q² of the
// polynomial base schedule for N(n, D) without materializing anything —
// only the O(q) parameter search runs. The background warmer budgets a
// whole duty-point lattice from this plus PredictedCells before building
// a single schedule.
func BaseFrameLength(n, d int) (int, error) {
	params, err := cff.FindPolynomialParams(n, d)
	if err != nil {
		return 0, err
	}
	return params.FrameLength(), nil
}

// PredictedCells returns the n×L footprint key k will occupy once built,
// given its class's base schedule ns: Theorem 7's frame length for
// duty-cycled keys, ns.L() itself for the base. This is the same closed
// form Build checks against its budget, so a warmer that filters on it
// never submits a key Build would refuse.
func PredictedCells(k Key, ns *core.Schedule) int64 {
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return int64(k.N) * int64(ns.L())
	}
	aStar := core.OptimalTransmittersCapped(k.N, k.D, k.AlphaT)
	return int64(k.N) * int64(core.ConstructedFrameLength(ns, aStar, k.AlphaR))
}

// Build constructs the schedule for k without any caching: the polynomial
// (orthogonal-array) topology-transparent non-sleeping schedule for
// N(n, D), duty-cycled through the paper's Construct algorithm when the
// (αT, αR) caps are set. Exported so benchmarks and servers can measure
// the cold path the cache amortizes. Budgeted by ServingLimits;
// BuildLimited takes explicit bounds.
func Build(k Key) (*core.Schedule, error) { return BuildLimited(k, ServingLimits) }

// BuildLimited is Build with an explicit n×L budget.
func BuildLimited(k Key, lim Limits) (*core.Schedule, error) {
	// The parameter search is a cheap scalar loop; budget-check the
	// resulting frame before materializing n member sets over it.
	params, err := cff.FindPolynomialParams(k.N, k.D)
	if err != nil {
		return nil, err
	}
	if cost := int64(k.N) * int64(params.FrameLength()); cost > lim.MaxCells {
		return nil, fmt.Errorf("schedcache: base schedule for N(%d, %d) needs frame length %d; n×L = %d exceeds the build budget %d",
			k.N, k.D, params.FrameLength(), cost, lim.MaxCells)
	}
	fam, err := cff.PolynomialFor(k.N, k.D)
	if err != nil {
		return nil, err
	}
	ns, err := core.ScheduleFromFamily(fam.L, fam.Sets)
	if err != nil {
		return nil, err
	}
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return ns, nil
	}
	if k.AlphaT+k.AlphaR > k.N {
		return nil, fmt.Errorf("schedcache: Construct requires αT + αR <= n (got %d + %d > %d)", k.AlphaT, k.AlphaR, k.N)
	}
	// Theorem 7 gives the duty-cycled frame length in closed form; check
	// it against the budget before running the expansion.
	aStar := core.OptimalTransmittersCapped(k.N, k.D, k.AlphaT)
	lFinal := core.ConstructedFrameLength(ns, aStar, k.AlphaR)
	if cost := int64(k.N) * int64(lFinal); cost > lim.MaxCells {
		return nil, fmt.Errorf("schedcache: (%d, %d)-schedule for N(%d, %d) needs frame length %d; n×L = %d exceeds the build budget %d",
			k.AlphaT, k.AlphaR, k.N, k.D, lFinal, cost, lim.MaxCells)
	}
	return core.Construct(ns, core.ConstructOptions{
		AlphaT:   k.AlphaT,
		AlphaR:   k.AlphaR,
		D:        k.D,
		Strategy: k.Strategy,
	})
}
