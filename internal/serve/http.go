package serve

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/shard"
)

// Content types the /schedule endpoint can serve.
const (
	// WireContentType selects the binary frame (internal/wire); request it
	// with Accept: application/x-ttdc-wire or ?format=wire.
	WireContentType = "application/x-ttdc-wire"
	JSONContentType = "application/json"
)

// DefaultMaxAge is the Cache-Control max-age (seconds) when Options
// leaves it zero. Schedules are immutable functions of their key, so a
// long client-side lifetime is safe; revalidation via ETag costs one
// round trip and no body.
const DefaultMaxAge = 3600

// Options configures the HTTP handler.
type Options struct {
	// MaxAge is the Cache-Control max-age in seconds (DefaultMaxAge when
	// 0; negative disables the header).
	MaxAge int
	// Forwarder, when set, shards /schedule across its ring: keys owned
	// by other peers are forwarded one hop.
	Forwarder *shard.Forwarder
	// Warmer, when set, only contributes its snapshot to /metrics; the
	// caller owns running it.
	Warmer *shard.Warmer
}

type errorResponse struct {
	Error string `json:"error"`
}

// latencyBuckets are the upper bounds of the /metrics request-latency
// histogram; a final +Inf bucket catches the rest.
var latencyBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// histogram is a fixed-bucket latency histogram with atomic counters;
// counts[len(latencyBuckets)] is the +Inf bucket.
type histogram struct {
	counts []atomic.Int64
	total  atomic.Int64 // observations
	sumNS  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBuckets) && d > latencyBuckets[i]; i++ {
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNS.Add(int64(d))
}

// snapshot renders cumulative ("le") bucket counts, expvar-style.
func (h *histogram) snapshot() map[string]int64 {
	out := make(map[string]int64, len(latencyBuckets)+3)
	var cum int64
	for i, b := range latencyBuckets {
		cum += h.counts[i].Load()
		out["le_"+b.String()] = cum
	}
	cum += h.counts[len(latencyBuckets)].Load()
	out["le_inf"] = cum
	out["count"] = h.total.Load()
	out["sum_ns"] = h.sumNS.Load()
	return out
}

// validatorSlots bounds the validator table: the number of keys owned by
// other peers whose content digests one peer remembers.
const validatorSlots = 4096

// learnedDigest is one validator-table slot: the content digest an owner's
// ETag carried for key, reusable until expires.
type learnedDigest struct {
	key     string // the full canonical key, compared on every lookup
	digest  string
	expires time.Time
}

// validatorTable lets a peer answer a revalidation of a key it does not
// own: it remembers the content digest each forwarded 200 or 304 carried,
// for at most maxAge. A schedule is a pure function of its key and its
// ETag is derived from its content, so a digest stays current for the
// whole build; the age bound only limits staleness across a deploy that
// changes Construct output. The table is direct-mapped: a key hashes to
// one slot, and learning it replaces whatever the slot held. Lookup and
// learn are one atomic load or store, and the slots are allocated on the
// first learn, so a peer that never forwards pays nothing.
type validatorTable struct {
	seed   maphash.Seed
	maxAge time.Duration // <= 0: never learn, so never reuse
	now    func() time.Time
	slots  atomic.Pointer[[validatorSlots]atomic.Pointer[learnedDigest]]
	local  atomic.Int64 // revalidations answered with a local 304
}

// ValidatorStats is the validator table's /metrics fragment.
type ValidatorStats struct {
	// LocalNotModified counts revalidations of keys owned by other peers
	// that this peer answered 304 itself, without forwarding.
	LocalNotModified int64 `json:"localNotModified"`
	// Entries is the number of slots holding a learned digest, fresh or
	// expired; at most validatorSlots.
	Entries int64 `json:"entries"`
}

// index is key's slot.
func (t *validatorTable) index(key string) uint64 {
	return maphash.String(t.seed, key) % validatorSlots
}

// lookup returns the digest learned for key, if it is still fresh.
func (t *validatorTable) lookup(key string) (string, bool) {
	slots := t.slots.Load()
	if slots == nil {
		return "", false
	}
	e := slots[t.index(key)].Load()
	if e == nil || e.key != key || !t.now().Before(e.expires) {
		return "", false
	}
	return e.digest, true
}

// learn records digest for key, reusable for maxAge from now.
func (t *validatorTable) learn(key, digest string) {
	if t.maxAge <= 0 {
		return
	}
	slots := t.slots.Load()
	if slots == nil {
		t.slots.CompareAndSwap(nil, new([validatorSlots]atomic.Pointer[learnedDigest]))
		slots = t.slots.Load()
	}
	slots[t.index(key)].Store(&learnedDigest{key: key, digest: digest, expires: t.now().Add(t.maxAge)})
}

func (t *validatorTable) stats() ValidatorStats {
	st := ValidatorStats{LocalNotModified: t.local.Load()}
	if slots := t.slots.Load(); slots != nil {
		for i := range slots {
			if slots[i].Load() != nil {
				st.Entries++
			}
		}
	}
	return st
}

// server holds the handler state over the Service.
type server struct {
	svc          *Service
	opts         Options
	cacheControl string // the Cache-Control value; "" sends none
	latency      *histogram
	requests     atomic.Int64
	notModified  atomic.Int64
	validators   validatorTable
	started      time.Time
}

// NewHandler builds the ttdcserve HTTP API over svc:
//
//	GET  /schedule?n=&D=&alphaT=&alphaR=&strategy=  schedule + analysis
//	POST /jobs                                      submit a batch campaign
//	GET  /jobs                                      list submitted campaigns
//	GET  /jobs/{id}                                 campaign progress + results
//	GET  /healthz                                   liveness probe
//	GET  /metrics                                   cache/engine/shard stats
//
// /schedule serves JSON by default and the binary wire frame under
// Accept: application/x-ttdc-wire (or ?format=wire); both carry a strong
// ETag derived from the wire content digest, honor If-None-Match with
// 304, and a Cache-Control lifetime from Options.MaxAge. With a
// Forwarder configured, keys owned by other ring peers are proxied one
// hop; a forwarded request for a key this peer does not own is refused
// with 421 (loop guard). A revalidation of another peer's key whose tag
// matches the digest an earlier forwarded answer carried, learned within
// the last MaxAge seconds, is answered 304 here without the hop.
//
// It is exported (and cmd/ttdcserve is a thin wrapper) so tests and the
// in-process loadgen ring drive it through net/http/httptest without
// binding ports.
func NewHandler(svc *Service, opts Options) http.Handler {
	return newServer(svc, opts).routes()
}

func newServer(svc *Service, opts Options) *server {
	if opts.MaxAge == 0 {
		opts.MaxAge = DefaultMaxAge
	}
	s := &server{svc: svc, opts: opts, latency: newHistogram(), started: time.Now()}
	s.validators.seed = maphash.MakeSeed()
	s.validators.now = time.Now
	if opts.MaxAge > 0 {
		s.cacheControl = "public, max-age=" + strconv.Itoa(opts.MaxAge)
		s.validators.maxAge = time.Duration(opts.MaxAge) * time.Second
	}
	return s
}

func (s *server) routes() http.Handler {
	jobs := s.svc.Jobs()
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", s.handleSchedule)
	mux.HandleFunc("POST /jobs", jobs.handleSubmit)
	mux.HandleFunc("GET /jobs", jobs.handleList)
	mux.HandleFunc("GET /jobs/{id}", jobs.handleGet)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", JSONContentType)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// intParam parses query parameter name as an int, 0 when absent.
func intParam(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return i, nil
}

// negotiate picks the response representation: the explicit ?format=
// override first, then the Accept header (wire only when the client asks
// for it by exact media type), defaulting to JSON.
func negotiate(format, accept string) (wantWire bool, err error) {
	switch format {
	case "wire":
		return true, nil
	case "json":
		return false, nil
	case "":
	default:
		return false, fmt.Errorf("parameter format=%q must be \"wire\" or \"json\"", format)
	}
	for _, part := range strings.Split(accept, ",") {
		mt := part
		if i := strings.Index(mt, ";"); i >= 0 {
			mt = mt[:i]
		}
		if strings.TrimSpace(mt) == WireContentType {
			return true, nil
		}
	}
	return false, nil
}

// parseScheduleQuery reads the /schedule parameters from the parsed query
// and the Accept header: the key, unvalidated, and the representation.
func parseScheduleQuery(q url.Values, accept string) (key schedcache.Key, wantWire bool, err error) {
	n, err := intParam(q, "n")
	if err == nil && n == 0 {
		err = fmt.Errorf("parameter n is required")
	}
	var d int
	if err == nil {
		d, err = intParam(q, "D")
		if d == 0 && err == nil {
			err = fmt.Errorf("parameter D is required")
		}
	}
	var alphaT, alphaR int
	if err == nil {
		alphaT, err = intParam(q, "alphaT")
	}
	if err == nil {
		alphaR, err = intParam(q, "alphaR")
	}
	var strategy = ttdc.Sequential
	if err == nil {
		strategy, err = schedcache.ParseStrategy(q.Get("strategy"))
	}
	if err == nil {
		wantWire, err = negotiate(q.Get("format"), accept)
	}
	if err != nil {
		return schedcache.Key{}, false, err
	}
	return schedcache.Key{N: n, D: d, AlphaT: alphaT, AlphaR: alphaR, Strategy: strategy}, wantWire, nil
}

// etagFor is the strong entity tag of one representation of an artifact:
// wire and JSON bodies differ, so one content digest gives two tags.
// parseETag inverts it.
func etagFor(digest string, wantWire bool) string {
	if wantWire {
		return `"` + digest + `-w"`
	}
	return `"` + digest + `-j"`
}

// parseETag inverts etagFor: it accepts exactly the tags etagFor builds
// from a non-empty lowercase-hex digest.
func parseETag(etag string) (digest string, wire bool, ok bool) {
	if len(etag) < 5 || etag[0] != '"' || etag[len(etag)-1] != '"' || etag[len(etag)-3] != '-' {
		return "", false, false
	}
	switch etag[len(etag)-2] {
	case 'w':
		wire = true
	case 'j':
	default:
		return "", false, false
	}
	digest = etag[1 : len(etag)-3]
	for i := 0; i < len(digest); i++ {
		if c := digest[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false, false
		}
	}
	return digest, wire, true
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags (weak prefixes tolerated) or "*".
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

// entityHeaders sets the headers every /schedule 200 and 304 carries,
// whether the owner or a peer holding a learned digest answers: the
// representation's ETag, Vary, Cache-Control, the cache state and the
// answering peer.
func (s *server) entityHeaders(h http.Header, etag, cacheState string) {
	h.Set("ETag", etag)
	h.Set("Vary", "Accept")
	if s.cacheControl != "" {
		h.Set("Cache-Control", s.cacheControl)
	}
	h.Set(shard.CacheHeader, cacheState)
	if f := s.opts.Forwarder; f != nil {
		h.Set(shard.ServedByHeader, f.Self())
	}
}

// writeNotModified answers a matching revalidation of the representation
// tagged etag.
func (s *server) writeNotModified(w http.ResponseWriter, etag, cacheState string) {
	s.entityHeaders(w.Header(), etag, cacheState)
	s.notModified.Add(1)
	w.WriteHeader(http.StatusNotModified)
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.latency.observe(time.Since(start)) }()
	s.requests.Add(1)

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	key, wantWire, err := parseScheduleQuery(r.URL.Query(), r.Header.Get("Accept"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := key.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	inm := r.Header.Get("If-None-Match")

	if f := s.opts.Forwarder; f != nil {
		canon := key.Canonical()
		if owner := f.Owner(canon); owner != f.Self() {
			if r.Header.Get(shard.ForwardedHeader) != "" {
				// Second hop: the forwarding peer believed we own this key,
				// we believe someone else does. Refuse loudly rather than
				// bouncing the request around an inconsistent ring.
				f.RejectLoop()
				writeError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("serve: peer %s does not own %s (ring says %s); rings disagree", f.Self(), canon, owner))
				return
			}
			if inm != "" {
				if digest, ok := s.validators.lookup(canon); ok {
					if etag := etagFor(digest, wantWire); etagMatch(inm, etag) {
						s.validators.local.Add(1)
						s.writeNotModified(w, etag, "hit")
						return
					}
				}
			}
			if etag, err := f.Forward(w, r, owner); err == nil {
				if digest, _, ok := parseETag(etag); ok {
					s.validators.learn(canon, digest)
				}
				return
			}
			// Owner unreachable or in backoff: nothing was written; serve
			// locally so the tier degrades to per-peer caching.
		}
	}

	a, hit, err := s.svc.Artifact(key)
	if err != nil {
		// The key parsed but no schedule exists for it (infeasible caps,
		// no admissible field, ...): the request is semantically broken.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	etag := etagFor(a.Digest, wantWire)
	state := "miss"
	if hit {
		state = "hit"
	}
	if etagMatch(inm, etag) {
		s.writeNotModified(w, etag, state)
		return
	}
	body, ct := a.JSON, JSONContentType
	if wantWire {
		body, ct = a.Wire, WireContentType
	}
	h := w.Header()
	s.entityHeaders(h, etag, state)
	h.Set("Content-Type", ct)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body) //nolint:errcheck // client gone; nothing to do
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// One cache answers /schedule; its block is served under both names
	// its readers use.
	st := s.svc.Cache().Stats()
	m := map[string]any{
		"cache":            st,
		"artifacts":        st,
		"engine":           s.svc.Jobs().metrics(),
		"requests":         s.requests.Load(),
		"not_modified":     s.notModified.Load(),
		"schedule_latency": s.latency.snapshot(),
		"uptime_seconds":   time.Since(s.started).Seconds(),
	}
	if f := s.opts.Forwarder; f != nil {
		m["shard"] = f.Metrics()
		m["validators"] = s.validators.stats()
	}
	if wm := s.opts.Warmer; wm != nil {
		m["warmer"] = wm.Snapshot()
	}
	writeJSON(w, http.StatusOK, m)
}
