// Package serve is the transport-agnostic schedule-serving layer behind
// cmd/ttdcserve. It owns everything between "a validated cache key" and
// "bytes a fleet client downloads": one memo of per-key serving artifacts
// (internal/schedcache) — the constructed schedule, the binary wire
// frame, the legacy JSON document, and the content digest that becomes
// the HTTP ETag — and the async campaign runs, with a drain path so a
// shutting-down server finishes what it accepted.
//
// The HTTP handler in http.go is one transport over this layer; tests
// (and the in-process loadgen ring) drive the same Service through
// httptest without binding ports.
package serve

import (
	"context"
	"encoding/json"

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

// bytes is the artifact's footprint in the cache: its schedule, as
// schedcache.ScheduleBytes estimates it, and both encodings.
func (a *Artifact) bytes() int64 {
	return schedcache.ScheduleBytes(a.Frame.Schedule) + int64(len(a.Wire)+len(a.JSON))
}

// ArtifactStats is the artifact cache's /metrics block.
type ArtifactStats = schedcache.Stats

// DefaultArtifactBytes bounds the artifact cache when no explicit budget
// is configured. Entry-count capacity alone is no bound at all here: one
// n=4096 schedule and its encodings outweigh thousands of small ones, so
// a count-capped cache could quietly hold gigabytes.
const DefaultArtifactBytes int64 = 64 << 20

// Service is the transport-agnostic serving core: the artifact cache in
// front of /schedule, and async campaign runs.
type Service struct {
	cache *schedcache.Cache[*Artifact]
	jobs  *Jobs
}

// NewService builds a service whose artifact cache holds at most capacity
// artifacts (schedcache.DefaultCapacity when <= 0) within
// DefaultArtifactBytes.
func NewService(capacity int) *Service {
	return NewServiceBytes(capacity, 0)
}

// NewServiceBytes is NewService with an explicit byte budget (<= 0 means
// DefaultArtifactBytes). The artifact cache holds each artifact's schedule
// and its encodings within it.
func NewServiceBytes(capacity int, artifactBytes int64) *Service {
	if artifactBytes <= 0 {
		artifactBytes = DefaultArtifactBytes
	}
	return &Service{
		cache: schedcache.NewCache(schedcache.Config[*Artifact]{
			Capacity: capacity,
			MaxBytes: artifactBytes,
			Limits:   schedcache.ServingLimits,
			Build:    newArtifact,
			Size:     (*Artifact).bytes,
		}),
		jobs: NewJobs(),
	}
}

// Cache exposes the artifact cache (stats, warm-path byte budget).
func (s *Service) Cache() *schedcache.Cache[*Artifact] { return s.cache }

// Jobs exposes the async campaign API.
func (s *Service) Jobs() *Jobs { return s.jobs }

// Artifact returns the serving artifact for k, building the schedule and
// its encodings on first use. The bool reports whether the artifact came
// from the cache (a fully warm hit).
func (s *Service) Artifact(k schedcache.Key) (*Artifact, bool, error) {
	return s.cache.Fetch(k)
}

// Schedule is the warmer's entry point: it fills the cache for k and
// returns the schedule.
func (s *Service) Schedule(k schedcache.Key) (*core.Schedule, error) {
	a, err := s.cache.Get(k)
	if err != nil {
		return nil, err
	}
	return a.Frame.Schedule, nil
}

// newArtifact is the artifact cache's build: the schedule for k, under
// the serving limits, and its encodings.
func newArtifact(k schedcache.Key) (*Artifact, error) {
	sched, err := schedcache.Build(k)
	if err != nil {
		return nil, err
	}
	return buildArtifact(k, sched)
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
