// Package schedcache memoizes schedule construction. Schedules are pure
// functions of (n, D, αT, αR, strategy), and building one — polynomial
// cover-free family over GF(q) plus the paper's Construct algorithm — is
// orders of magnitude more expensive than a map lookup, so a serving
// deployment wants every distinct key built exactly once.
//
// Cache is a concurrency-safe LRU memo of any value built from a Key: the
// schedule itself (New, the root package's ScheduleCache), or a value
// derived from it, such as the serving tier's artifact, which then keeps
// a schedule and its encodings in one entry under one set of bounds. A
// cache is bounded by entry count and, optionally, by the summed byte
// size of its values. It deduplicates like singleflight: N concurrent
// Gets for the same missing key run exactly one build, and the other N-1
// callers block until the leader finishes and then share its result.
// Build errors are returned to every waiter but never cached, so a
// transient bad key does not poison the table. Every key is validated
// against the cache's Limits before it is built, and the
// hit/miss/eviction/construction counters are kept atomically and exposed
// via Stats.
//
// The package also holds the one table of named base constructions
// (BaseNames): every caller that builds a base by name goes through
// BuildBase, or through BuildBaseLimited where a budget applies, so a
// base's degree rule, closed-form frame length and build are written
// once. ConstructLimited turns such a base into a duty-cycled schedule
// under the same budget: the two are the one bounded build, for this
// package's caches and the campaign engine alike.
package schedcache

import (
	"container/list"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

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

// Limits bounds what a cache or a campaign will validate and construct.
// The right bounds depend on who is asking: a serving deployment takes
// keys from the network and must cap what one request can allocate, while
// an operator running a local campaign asked for that footprint on
// purpose.
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

// Stats is an atomic snapshot of cache counters. Its JSON form is the
// cache's block in the serving tier's /metrics.
type Stats struct {
	// Hits counts Gets served from a cached entry.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found no cached entry — both build leaders
	// and callers coalesced onto another caller's build.
	Misses int64 `json:"misses"`
	// Inflight is the number of builds running right now.
	Inflight int64 `json:"inflight"`
	// Evictions counts entries dropped to keep the cache within its bounds.
	Evictions int64 `json:"evictions"`
	// Constructions counts actual build runs; with perfect deduplication
	// this equals the number of distinct keys ever built.
	Constructions int64 `json:"constructions"`
	// Errors counts builds that failed (failures are not cached).
	Errors int64 `json:"errors"`
	// Entries is the current number of cached values.
	Entries int64 `json:"entries"`
	// Capacity is the entry-count bound.
	Capacity int64 `json:"capacity"`
	// Bytes is the estimated memory footprint of all cached values (the
	// cache's Size; ScheduleBytes for a schedule cache). The background
	// warmer reads this against its byte budget so precomputation stops
	// before it starts evicting the very entries it just warmed.
	Bytes int64 `json:"bytes"`
	// CapacityBytes is the bound on Bytes; 0 when the entry count alone
	// bounds the cache.
	CapacityBytes int64 `json:"capacityBytes"`
	// EvictedBytes accumulates the estimated footprint of every entry
	// evicted so far; Bytes + EvictedBytes is the total ever inserted. It
	// tells a cache that churns gigabytes through a tight budget from one
	// that evicted a few cold entries once.
	EvictedBytes int64 `json:"evictedBytes"`
}

// Config describes a cache of V values.
type Config[V any] struct {
	// Capacity bounds the entry count (DefaultCapacity when <= 0).
	Capacity int
	// MaxBytes, when positive, also bounds the summed Size of the entries.
	MaxBytes int64
	// Limits validates every key before Build sees it.
	Limits Limits
	// Build makes the value for a validated key, once per miss however
	// many Gets wait on it. It checks the key's footprint against Limits
	// before materializing anything, as BuildLimited does.
	Build func(Key) (V, error)
	// Size estimates a value's resident footprint in bytes.
	Size func(V) int64
}

// call is a pending build that concurrent Gets coalesce onto.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

type entry[V any] struct {
	key   Key
	v     V
	bytes int64
}

// Cache is a memoizing cache of the values its Config builds. The zero
// value is not usable; use New or NewCache. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	cfg Config[V]

	mu       sync.Mutex
	lru      *list.List // front = most recently used; element values are *entry[V]
	entries  map[Key]*list.Element
	inflight map[Key]*call[V]
	bytes    int64 // estimated footprint of live entries; guarded by mu
	evicted  int64 // estimated footprint of evicted entries; guarded by mu

	hits, misses, evictions, constructions, errors, inflightN atomic.Int64
}

// DefaultCapacity bounds the cache when it is given a non-positive size.
const DefaultCapacity = 1024

// New returns a cache holding at most capacity schedules (DefaultCapacity
// when capacity <= 0), validating keys against ServingLimits and building
// them with Build.
func New(capacity int) *Cache[*core.Schedule] {
	return NewCache(Config[*core.Schedule]{
		Capacity: capacity,
		Limits:   ServingLimits,
		Build:    Build,
		Size:     ScheduleBytes,
	})
}

// NewCache returns an empty cache of the values cfg.Build makes.
func NewCache[V any](cfg Config[V]) *Cache[V] {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Cache[V]{
		cfg:      cfg,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call[V]),
	}
}

// Len returns the current number of cached values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
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
		Capacity:      int64(c.cfg.Capacity),
		Bytes:         bytes,
		CapacityBytes: c.cfg.MaxBytes,
		EvictedBytes:  evicted,
	}
}

// Get returns the value for k, building and caching it on first use.
// Concurrent Gets for the same missing key run one build; the rest wait
// and share the result. Values are shared, never copied: callers must
// treat them as immutable.
func (c *Cache[V]) Get(k Key) (V, error) {
	v, _, err := c.Fetch(k)
	return v, err
}

// Fetch is Get that also reports whether the value came from a cached
// entry (a hit), rather than from a build this call ran or waited on.
func (c *Cache[V]) Fetch(k Key) (v V, hit bool, err error) {
	if err := c.cfg.Limits.Validate(k); err != nil {
		return v, false, err
	}
	c.mu.Lock()
	if v, ok := c.hitLocked(k); ok {
		c.mu.Unlock()
		return v, true, nil
	}
	c.misses.Add(1)
	if cl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.v, false, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[k] = cl
	c.inflightN.Add(1)
	c.mu.Unlock()

	c.constructions.Add(1)
	v, err = c.cfg.Build(k)

	c.mu.Lock()
	delete(c.inflight, k)
	c.inflightN.Add(-1)
	if err != nil {
		c.errors.Add(1)
	} else {
		c.insertLocked(k, v)
	}
	c.mu.Unlock()

	cl.v, cl.err = v, err
	close(cl.done)
	return v, false, err
}

// hitLocked returns k's cached value, if any, and marks it most recently
// used. Caller holds c.mu.
//
//ttdc:hotpath the fully warm serving hit: map probe, LRU repositioning and one atomic counter
func (c *Cache[V]) hitLocked(k Key) (v V, ok bool) {
	el, ok := c.entries[k]
	if !ok {
		return v, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*entry[V]).v, true
}

// insertLocked adds (k, v) as the most recently used entry and evicts from
// the LRU tail until both bounds hold. Only the build leader inserts, and
// no other leader for k exists until it has, so k is never already
// present. A value bigger than the whole byte budget evicts everything
// including itself: the budget is a hard ceiling, and the leader already
// holds the value it built. Caller holds c.mu.
func (c *Cache[V]) insertLocked(k Key, v V) {
	b := c.cfg.Size(v)
	c.entries[k] = c.lru.PushFront(&entry[V]{key: k, v: v, bytes: b})
	c.bytes += b
	for len(c.entries) > c.cfg.Capacity || (c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes) {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		e := tail.Value.(*entry[V])
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

// PredictedCells returns the n×L footprint key k will occupy once built,
// given its class's base schedule ns: Theorem 7's frame length for
// duty-cycled keys, ns.L() itself for the base. This is the same closed
// form Build checks against its budget, so a warmer that filters on it
// never submits a key Build would refuse.
func PredictedCells(k Key, ns *core.Schedule) int64 {
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return int64(k.N) * int64(ns.L())
	}
	return int64(k.N) * int64(constructedFrameLength(k, ns))
}

// constructedFrameLength is Theorem 7's frame length of Construct's
// (αT, αR)-schedule for k over the base ns.
func constructedFrameLength(k Key, ns *core.Schedule) int {
	aStar := core.OptimalTransmittersCapped(k.N, k.D, k.AlphaT)
	return core.ConstructedFrameLength(ns, aStar, k.AlphaR)
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
	ns, err := BuildBaseLimited("polynomial", k, lim)
	if err != nil {
		return nil, err
	}
	if k.AlphaT == 0 && k.AlphaR == 0 {
		return ns, nil
	}
	return ConstructLimited(ns, k, lim)
}

// ConstructLimited is the paper's Construct held to lim: it turns the
// base ns of k's class into k's (αT, αR)-schedule, with k's caps, degree
// bound and division strategy, once the caps fit n and Theorem 7's frame
// length fits the n×L budget. k must name a duty-cycled key that lim
// validated; BuildLimited and the campaign engine build every
// duty-cycled schedule this way.
func ConstructLimited(ns *core.Schedule, k Key, lim Limits) (*core.Schedule, error) {
	if k.AlphaT+k.AlphaR > k.N {
		return nil, fmt.Errorf("schedcache: Construct requires αT + αR <= n (got %d + %d > %d)", k.AlphaT, k.AlphaR, k.N)
	}
	if err := lim.CheckConstruct(k, ns); err != nil {
		return nil, err
	}
	return core.Construct(ns, core.ConstructOptions{
		AlphaT:   k.AlphaT,
		AlphaR:   k.AlphaR,
		D:        k.D,
		Strategy: k.Strategy,
	})
}

// CheckBase reports whether the base schedule for k's class, whose frame
// length l a closed form gives, fits lim's n×L budget. BuildBaseLimited
// checks every base this way before its sets are materialized.
func (lim Limits) CheckBase(k Key, l int) error {
	if !lim.fits(k.N, l) {
		return fmt.Errorf("schedcache: base schedule for N(%d, %d) needs frame length %d; n×L = %v exceeds the build budget %d",
			k.N, k.D, l, cells(k.N, l), lim.MaxCells)
	}
	return nil
}

// CheckConstruct reports whether Construct's (αT, αR)-schedule for the
// validated key k over the base ns fits lim's n×L budget. Theorem 7 gives
// its frame length in closed form, so the check runs before the
// expansion.
func (lim Limits) CheckConstruct(k Key, ns *core.Schedule) error {
	if l := constructedFrameLength(k, ns); !lim.fits(k.N, l) {
		return fmt.Errorf("schedcache: (%d, %d)-schedule for N(%d, %d) needs frame length %d; n×L = %v exceeds the build budget %d",
			k.AlphaT, k.AlphaR, k.N, k.D, l, cells(k.N, l), lim.MaxCells)
	}
	return nil
}

// fits reports whether n×l <= lim.MaxCells. It divides rather than
// multiplies: at TrustedLimits' n = 2^21 a polynomial frame of q² = 2^42
// slots puts n×l past the int64 range, where the product would wrap and
// pass.
func (lim Limits) fits(n, l int) bool {
	return n <= 0 || int64(l) <= lim.MaxCells/int64(n)
}

// cells is n×l without overflow, for error messages.
func cells(n, l int) *big.Int {
	return new(big.Int).Mul(big.NewInt(int64(n)), big.NewInt(int64(l)))
}
