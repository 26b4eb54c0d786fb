// Package serve is the transport-agnostic schedule-serving layer behind
// cmd/ttdcserve. It owns everything between "a validated cache key" and
// "bytes a fleet client downloads": the memoized schedule construction
// (internal/schedcache), the per-key serving artifacts — the binary wire
// frame, the legacy JSON document, and the content digest that becomes
// the HTTP ETag — and the async campaign runs, with a drain path so a
// shutting-down server finishes what it accepted.
//
// The HTTP handler in http.go is one transport over this layer; tests
// (and the in-process loadgen ring) drive the same Service through
// httptest without binding ports.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	ttdc "repro"
	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/wire"
)

// scheduleFields are the JSON /schedule payload's fields after the
// schedule: the request echo and the analysis figures a node (or an
// operator) wants alongside it. The payload is
// {"schedule":<AppendScheduleJSON document>,<these fields>} — the schedule
// document embedded verbatim, so DecodeSchedule accepts it. The binary
// representation carries the same information as a wire.Frame.
type scheduleFields struct {
	// Request echo.
	N        int    `json:"n"`
	D        int    `json:"d"`
	AlphaT   int    `json:"alphaT"`
	AlphaR   int    `json:"alphaR"`
	Strategy string `json:"strategy"`
	// Analysis.
	L                  int     `json:"l"`
	ActiveFraction     float64 `json:"activeFraction"`
	AvgThroughput      string  `json:"avgThroughput"` // exact Theorem-2 rational
	AvgThroughputFloat float64 `json:"avgThroughputFloat"`
}

// Artifact is everything the serving tier ever sends for one key, built
// once and immutable afterwards: callers must not mutate the byte slices.
type Artifact struct {
	Key   schedcache.Key
	Frame *wire.Frame
	// Wire is the binary frame (wire.Encode output).
	Wire []byte
	// JSON is the newline-terminated /schedule document: the schedule
	// followed by the scheduleFields.
	JSON []byte
	// Digest is the 128-bit hex content digest of Wire; the HTTP layer
	// derives the per-representation ETag from it.
	Digest string
}

// ArtifactStats counts the artifact cache's traffic. EvictedBytes is the
// cumulative size of everything evicted, so an operator can tell a cache
// that churns gigabytes through a tight budget from one that evicted a few
// cold entries once.
type ArtifactStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Entries       int64 `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacityBytes"`
	EvictedBytes  int64 `json:"evictedBytes"`
}

// DefaultArtifactBytes bounds the artifact cache when no explicit budget
// is configured. Entry-count capacity alone is no bound at all here: one
// n=4096 schedule's wire+JSON encodings outweigh thousands of small ones,
// so a count-capped cache could quietly hold gigabytes.
const DefaultArtifactBytes int64 = 64 << 20

// artifactCache is a small LRU over encoded artifacts, bounded both by
// entry count and by encoded bytes. Encoding is cheap next to construction
// but not next to a warm hit — a fleet pulling the same few hundred keys
// should not re-serialize a schedule per request.
type artifactCache struct {
	capacity int
	maxBytes int64

	mu      sync.Mutex
	lru     *list.List // element values are *Artifact
	entries map[schedcache.Key]*list.Element
	bytes   int64

	hits, misses, evictions, evictedBytes atomic.Int64
}

func newArtifactCache(capacity int, maxBytes int64) *artifactCache {
	if maxBytes <= 0 {
		maxBytes = DefaultArtifactBytes
	}
	return &artifactCache{
		capacity: capacity,
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[schedcache.Key]*list.Element),
	}
}

//ttdc:hotpath the fully warm serving hit: map probe, LRU repositioning, and atomic counters only
func (c *artifactCache) get(k schedcache.Key) (*Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*Artifact), true
}

func (c *artifactCache) add(a *Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[a.Key]; ok { // lost a race with another builder
		c.lru.MoveToFront(el)
		return
	}
	c.entries[a.Key] = c.lru.PushFront(a)
	c.bytes += int64(len(a.Wire) + len(a.JSON))
	// Evict from the cold end until both bounds hold. An artifact bigger
	// than the whole byte budget evicts everything including itself: the
	// budget is a hard ceiling, oversized artifacts are just never cached
	// (the caller already holds the one it built).
	for len(c.entries) > c.capacity || c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		e := tail.Value.(*Artifact)
		delete(c.entries, e.Key)
		sz := int64(len(e.Wire) + len(e.JSON))
		c.bytes -= sz
		c.evictions.Add(1)
		c.evictedBytes.Add(sz)
	}
}

func (c *artifactCache) stats() ArtifactStats {
	c.mu.Lock()
	entries, bytes := int64(len(c.entries)), c.bytes
	c.mu.Unlock()
	return ArtifactStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		Bytes:         bytes,
		CapacityBytes: c.maxBytes,
		EvictedBytes:  c.evictedBytes.Load(),
	}
}

// Service is the transport-agnostic serving core: schedule cache,
// artifact cache, and async campaign runs.
type Service struct {
	cache *schedcache.Cache
	arts  *artifactCache
	jobs  *Jobs
}

// NewService builds a service over a fresh schedule cache of the given
// capacity (schedcache.DefaultCapacity when <= 0). The artifact cache
// mirrors the schedule cache's entry capacity and is additionally bounded
// by DefaultArtifactBytes of encoded payload.
func NewService(capacity int) *Service {
	return NewServiceBytes(capacity, 0)
}

// NewServiceBytes is NewService with an explicit artifact-cache byte
// budget (<= 0 means DefaultArtifactBytes).
func NewServiceBytes(capacity int, artifactBytes int64) *Service {
	cache := schedcache.New(capacity)
	return &Service{
		cache: cache,
		arts:  newArtifactCache(cache.Capacity(), artifactBytes),
		jobs:  NewJobs(cache),
	}
}

// Cache exposes the schedule cache (stats, warm-path byte budget).
func (s *Service) Cache() *schedcache.Cache { return s.cache }

// Jobs exposes the async campaign API.
func (s *Service) Jobs() *Jobs { return s.jobs }

// ArtifactStats snapshots the artifact cache counters.
func (s *Service) ArtifactStats() ArtifactStats { return s.arts.stats() }

// Artifact returns the serving artifact for k, building and caching the
// schedule and its encodings on first use. The bool reports whether the
// artifact came from the artifact cache (a fully warm hit).
func (s *Service) Artifact(k schedcache.Key) (*Artifact, bool, error) {
	if a, ok := s.arts.get(k); ok {
		return a, true, nil
	}
	sched, err := s.cache.Get(k)
	if err != nil {
		return nil, false, err
	}
	a, err := buildArtifact(k, sched)
	if err != nil {
		return nil, false, err
	}
	s.arts.add(a)
	return a, false, nil
}

// Schedule is the warmer's entry point: it fills both caches for k and
// returns the schedule.
func (s *Service) Schedule(k schedcache.Key) (*core.Schedule, error) {
	a, _, err := s.Artifact(k)
	if err != nil {
		return nil, err
	}
	return a.Frame.Schedule, nil
}

// buildArtifact encodes both representations and the content digest. The
// JSON document is appended in one pass: the schedule straight from its
// slot words, then the fixed fields, which encoding/json marshals so
// their number and string formatting is the standard library's.
func buildArtifact(k schedcache.Key, sched *core.Schedule) (*Artifact, error) {
	frame := &wire.Frame{
		N: k.N, D: k.D, AlphaT: k.AlphaT, AlphaR: k.AlphaR, Strategy: k.Strategy,
		Schedule:       sched,
		AvgThroughput:  core.AvgThroughput(sched, k.D),
		ActiveFraction: sched.ActiveFraction(),
	}
	wireBytes, err := wire.Encode(frame)
	if err != nil {
		return nil, err
	}
	fields, err := json.Marshal(scheduleFields{
		N:                  k.N,
		D:                  k.D,
		AlphaT:             k.AlphaT,
		AlphaR:             k.AlphaR,
		Strategy:           schedcache.StrategyName(k.Strategy),
		L:                  sched.L(),
		ActiveFraction:     frame.ActiveFraction,
		AvgThroughput:      frame.AvgThroughput.RatString(),
		AvgThroughputFloat: ttdc.RatFloat(frame.AvgThroughput),
	})
	if err != nil {
		return nil, err
	}
	// The buffer starts with room for everything around the schedule, which
	// AppendScheduleJSON keeps free past the document it appends.
	const open = `{"schedule":`
	jsonBytes := append(make([]byte, 0, len(open)+len(fields)+1), open...)
	jsonBytes = ttdc.AppendScheduleJSON(jsonBytes, sched)
	jsonBytes = append(jsonBytes, ',')
	jsonBytes = append(jsonBytes, fields[1:]...) // the ',' stands in for the fields' own '{'
	jsonBytes = append(jsonBytes, '\n')
	return &Artifact{
		Key:    k,
		Frame:  frame,
		Wire:   wireBytes,
		JSON:   jsonBytes,
		Digest: wire.Digest(wireBytes),
	}, nil
}

// Drain waits for every accepted campaign run to finish. If ctx expires
// first, the runs are cancelled, the wait completes (the engine honors
// cancellation promptly), and ctx's error is returned.
func (s *Service) Drain(ctx context.Context) error {
	return s.jobs.Drain(ctx)
}
