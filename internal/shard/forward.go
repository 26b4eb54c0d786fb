package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ForwardedHeader marks a request that already crossed one peer hop. The
// owner of a key serves such a request locally; any peer that is NOT the
// owner rejects it with 421 instead of forwarding again, so an
// inconsistent ring configuration can never produce a forwarding loop.
const ForwardedHeader = "X-Ttdc-Forwarded"

// ServedByHeader names the peer whose cache actually answered, for
// operators and the loadgen's forward accounting.
const ServedByHeader = "X-Ttdc-Served-By"

// Forwarder defaults.
const (
	DefaultTimeout       = 2 * time.Second
	DefaultFailThreshold = 3
	DefaultBackoff       = 10 * time.Second
)

// Config configures a Forwarder.
type Config struct {
	// Self is this peer's own base URL as it appears in Peers. Keys whose
	// owner equals Self are served locally.
	Self string
	// Peers is the full ring membership, including Self.
	Peers []string
	// Replicas is the virtual-node count per peer (DefaultReplicas if 0).
	Replicas int
	// Timeout bounds one forwarded request (DefaultTimeout if 0).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that puts a peer
	// into backoff (DefaultFailThreshold if 0).
	FailThreshold int
	// Backoff is how long a peer past the threshold is skipped — its
	// keys are served locally — before forwarding is retried
	// (DefaultBackoff if 0).
	Backoff time.Duration

	// now is injected by tests to step backoff deadlines deterministically.
	now func() time.Time
}

// peerState tracks one remote peer's health under Forwarder.mu.
type peerState struct {
	consecFails int
	failures    int64 // lifetime failures, for metrics
	forwards    int64 // lifetime successful forwards
	downUntil   time.Time
}

// Forwarder owns the routing decision for one peer of the tier: whether a
// key is served locally, and the single-hop proxying (with per-peer
// timeout, failure counting, and backoff) when it is not.
type Forwarder struct {
	ring          *Ring
	self          string
	timeout       time.Duration
	failThreshold int
	backoff       time.Duration
	client        *http.Client
	now           func() time.Time

	mu    sync.Mutex
	peers map[string]*peerState

	loopRejects    atomic.Int64
	localFallbacks atomic.Int64
}

// NewForwarder builds the forwarder for cfg.Self within cfg.Peers.
func NewForwarder(cfg Config) (*Forwarder, error) {
	ring, err := NewRing(cfg.Peers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("shard: self %q is not among the ring peers %v", cfg.Self, ring.Peers())
	}
	f := &Forwarder{
		ring:          ring,
		self:          cfg.Self,
		timeout:       cfg.Timeout,
		failThreshold: cfg.FailThreshold,
		backoff:       cfg.Backoff,
		client:        &http.Client{},
		now:           cfg.now,
		peers:         make(map[string]*peerState),
	}
	if f.timeout <= 0 {
		f.timeout = DefaultTimeout
	}
	if f.failThreshold <= 0 {
		f.failThreshold = DefaultFailThreshold
	}
	if f.backoff <= 0 {
		f.backoff = DefaultBackoff
	}
	if f.now == nil {
		f.now = time.Now
	}
	for _, p := range ring.Peers() {
		if p != f.self {
			f.peers[p] = &peerState{}
		}
	}
	return f, nil
}

// Self returns this peer's own name.
func (f *Forwarder) Self() string { return f.self }

// Ring exposes the underlying ring (for warm-path ownership checks).
func (f *Forwarder) Ring() *Ring { return f.ring }

// Owner returns the owning peer of a canonical key.
func (f *Forwarder) Owner(key string) string { return f.ring.Owner(key) }

// Owns reports whether this peer serves the canonical key itself.
func (f *Forwarder) Owns(key string) bool { return f.ring.Owner(key) == f.self }

// RejectLoop records a loop-guard rejection (the HTTP layer answers 421).
func (f *Forwarder) RejectLoop() { f.loopRejects.Add(1) }

// errPeerDown is returned without any network attempt while a peer is in
// backoff; the caller serves locally.
var errPeerDown = fmt.Errorf("shard: peer is in failure backoff")

// relayedHeaders are the owner's response headers Forward copies to the
// client: the representation's type, length and validators, and the cache
// directives that keep a shared cache from mixing representations.
var relayedHeaders = []string{"Content-Type", "Content-Length", "ETag", "Vary", "Cache-Control", CacheHeader}

// Forward proxies r to owner one hop and writes the proxied response to
// w. It returns the owner's ETag when the owner answered 200 or 304 and
// its body was relayed whole, and "" otherwise. On any error nothing has
// been written to w — the caller falls back to serving the key locally
// (and should count it; Metrics already records the failure). Responses
// with 5xx status also count against the owner's failure threshold, but
// are still relayed: the owner answered, just unhappily.
func (f *Forwarder) Forward(w http.ResponseWriter, r *http.Request, owner string) (etag string, err error) {
	f.mu.Lock()
	st, ok := f.peers[owner]
	if !ok {
		f.mu.Unlock()
		return "", fmt.Errorf("shard: %q is not a remote peer", owner)
	}
	if f.now().Before(st.downUntil) {
		f.mu.Unlock()
		f.localFallbacks.Add(1)
		return "", errPeerDown
	}
	f.mu.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, owner+r.URL.RequestURI(), nil)
	if err != nil {
		return "", err
	}
	// Carry only the negotiation and revalidation headers; everything
	// else is hop-local.
	for _, h := range []string{"Accept", "If-None-Match"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(ForwardedHeader, f.self)

	resp, err := f.client.Do(req)
	if err != nil {
		f.recordFailure(owner)
		f.localFallbacks.Add(1)
		return "", err
	}
	defer resp.Body.Close() //nolint:errcheck // drained below
	if resp.StatusCode >= 500 {
		f.recordFailure(owner)
	} else {
		f.recordSuccess(owner)
	}
	for _, h := range relayedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(ServedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	// The status line is out, so a failed copy (client gone, or the owner
	// cut its body short, which the relayed Content-Length shows the
	// client) is not an error the caller could act on: serving locally now
	// would write a second response.
	if _, err := io.Copy(w, resp.Body); err != nil {
		return "", nil
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
		etag = resp.Header.Get("ETag")
	}
	return etag, nil
}

// CacheHeader is set by the serving layer to "hit" or "miss" so clients
// (and the loadgen) can attribute latency without scraping /metrics. It
// is declared here because the forwarder relays it across the hop.
const CacheHeader = "X-Ttdc-Cache"

func (f *Forwarder) recordFailure(owner string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.peers[owner]
	st.failures++
	st.consecFails++
	if st.consecFails >= f.failThreshold {
		st.downUntil = f.now().Add(f.backoff)
		st.consecFails = 0
	}
}

func (f *Forwarder) recordSuccess(owner string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.peers[owner]
	st.forwards++
	st.consecFails = 0
	st.downUntil = time.Time{}
}

// PeerMetrics is one remote peer's health snapshot.
type PeerMetrics struct {
	Peer      string `json:"peer"`
	Forwards  int64  `json:"forwards"`
	Failures  int64  `json:"failures"`
	InBackoff bool   `json:"inBackoff"`
}

// Metrics is the forwarder's /metrics fragment. OwnershipShares maps every
// ring peer (self included) to its fraction of the hash keyspace, so
// forward-count skew can be read against the keyspace split that causes it.
type Metrics struct {
	Self            string             `json:"self"`
	Peers           []PeerMetrics      `json:"peers"`
	OwnershipShares map[string]float64 `json:"ownershipShares"`
	LoopRejects     int64              `json:"loopRejects"`
	LocalFallbacks  int64              `json:"localFallbacks"`
}

// Metrics snapshots routing health, peers sorted by name.
func (f *Forwarder) Metrics() Metrics {
	m := Metrics{
		Self:            f.self,
		OwnershipShares: f.ring.OwnershipShares(),
		LoopRejects:     f.loopRejects.Load(),
		LocalFallbacks:  f.localFallbacks.Load(),
	}
	f.mu.Lock()
	now := f.now()
	names := make([]string, 0, len(f.peers))
	for p := range f.peers {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		st := f.peers[p]
		m.Peers = append(m.Peers, PeerMetrics{
			Peer:      p,
			Forwards:  st.forwards,
			Failures:  st.failures,
			InBackoff: now.Before(st.downUntil),
		})
	}
	f.mu.Unlock()
	return m
}
