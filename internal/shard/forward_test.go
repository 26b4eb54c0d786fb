package shard

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/schedcache"
)

// keyOwnedBy scans the duty-point lattice for a canonical key the ring
// assigns to owner.
func keyOwnedBy(t *testing.T, r *Ring, owner string) string {
	t.Helper()
	for n := 5; n < 200; n++ {
		for at := 0; at <= 3; at++ {
			k := schedcache.Key{N: n, D: 2, AlphaT: at, AlphaR: at}.Canonical()
			if r.Owner(k) == owner {
				return k
			}
		}
	}
	t.Fatalf("no key found owned by %s", owner)
	return ""
}

func TestForwarderSelfShortCircuit(t *testing.T) {
	f, err := NewForwarder(Config{Self: "http://self", Peers: []string{"http://self", "http://other"}})
	if err != nil {
		t.Fatal(err)
	}
	selfKey := keyOwnedBy(t, f.Ring(), "http://self")
	otherKey := keyOwnedBy(t, f.Ring(), "http://other")
	if !f.Owns(selfKey) || f.Owns(otherKey) {
		t.Fatalf("ownership check wrong: Owns(%s)=%v Owns(%s)=%v", selfKey, f.Owns(selfKey), otherKey, f.Owns(otherKey))
	}
	// Forwarding to yourself is a caller bug, not a network call.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
	if _, err := f.Forward(rec, req, "http://self"); err == nil {
		t.Fatal("Forward to self did not error")
	}
	if rec.Body.Len() != 0 || rec.Header().Get(ServedByHeader) != "" {
		t.Fatal("failed Forward wrote to the ResponseWriter")
	}
}

func TestForwarderRejectsStranger(t *testing.T) {
	f, err := NewForwarder(Config{Self: "http://self", Peers: []string{"http://self", "http://other"}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
	if _, err := f.Forward(rec, req, "http://not-in-ring"); err == nil {
		t.Fatal("Forward to a peer outside the ring did not error")
	}
}

func TestForwarderSelfMustBeMember(t *testing.T) {
	if _, err := NewForwarder(Config{Self: "http://ghost", Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Fatal("self outside the ring accepted")
	}
}

// TestForwarderRelaysResponse proxies one hop to a live backend and
// checks status, body, header relay (including the loop-guard header
// arriving at the owner), and the ETag Forward hands back.
func TestForwarderRelaysResponse(t *testing.T) {
	var sawForwarded string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawForwarded = r.Header.Get(ForwardedHeader)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"abc-j"`)
		w.Header().Set("Vary", "Accept")
		w.Header().Set("Cache-Control", "public, max-age=60")
		w.Header().Set(CacheHeader, "hit")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck // test backend
	}))
	defer backend.Close()

	f, err := NewForwarder(Config{Self: "http://self", Peers: []string{"http://self", backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
	req.Header.Set("If-None-Match", `"abc-j"`)
	etag, err := f.Forward(rec, req, backend.URL)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if etag != `"abc-j"` {
		t.Fatalf("Forward handed back ETag %q, want the owner's", etag)
	}
	if sawForwarded != "http://self" {
		t.Fatalf("owner saw %s=%q, want the forwarding peer", ForwardedHeader, sawForwarded)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` {
		t.Fatalf("relayed %d %q", rec.Code, rec.Body.String())
	}
	for h, want := range map[string]string{
		"Content-Type":   "application/json",
		"Content-Length": "11",
		"ETag":           `"abc-j"`,
		"Vary":           "Accept",
		"Cache-Control":  "public, max-age=60",
		CacheHeader:      "hit",
		ServedByHeader:   backend.URL,
	} {
		if got := rec.Header().Get(h); got != want {
			t.Errorf("relayed header %s = %q, want %q", h, got, want)
		}
	}
	m := f.Metrics()
	if len(m.Peers) != 1 || m.Peers[0].Forwards != 1 || m.Peers[0].Failures != 0 {
		t.Fatalf("metrics after success: %+v", m)
	}
}

// TestForwarderDeadPeerBackoff drives a dead owner past the failure
// threshold with a deterministic clock: the forwarder must stop dialing
// (errPeerDown, local fallback) until the backoff expires, then try the
// network again.
func TestForwarderDeadPeerBackoff(t *testing.T) {
	now := time.Unix(1000, 0)
	dead := "http://127.0.0.1:1" // reserved port: immediate connection refused
	f, err := NewForwarder(Config{
		Self:          "http://self",
		Peers:         []string{"http://self", dead},
		Timeout:       500 * time.Millisecond,
		FailThreshold: 3,
		Backoff:       10 * time.Second,
		now:           func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := func() error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
		_, err := f.Forward(rec, req, dead)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := fwd(); err == nil || err == errPeerDown {
			t.Fatalf("attempt %d: err = %v, want transport error", i, err)
		}
	}
	// Threshold reached: the next attempts short-circuit without dialing.
	for i := 0; i < 2; i++ {
		if err := fwd(); err != errPeerDown {
			t.Fatalf("in backoff: err = %v, want errPeerDown", err)
		}
	}
	m := f.Metrics()
	if m.Peers[0].Failures != 3 {
		t.Fatalf("failures = %d, want 3 (backoff attempts must not dial)", m.Peers[0].Failures)
	}
	if !m.Peers[0].InBackoff {
		t.Fatal("metrics do not show the peer in backoff")
	}
	if m.LocalFallbacks != 5 {
		t.Fatalf("localFallbacks = %d, want 5 (3 dial failures + 2 short-circuits)", m.LocalFallbacks)
	}
	// Past the backoff deadline the forwarder dials again.
	now = now.Add(11 * time.Second)
	if err := fwd(); err == nil || err == errPeerDown {
		t.Fatalf("after backoff: err = %v, want a fresh transport error", err)
	}
	if m := f.Metrics(); m.Peers[0].Failures != 4 {
		t.Fatalf("failures after backoff expiry = %d, want 4", m.Peers[0].Failures)
	}
}

// TestForwarderServerErrorCountsAsFailure: a 5xx from the owner is
// relayed to the client but still counts against the owner's health.
func TestForwarderServerErrorCountsAsFailure(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer backend.Close()
	f, err := NewForwarder(Config{Self: "http://self", Peers: []string{"http://self", backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	etag, err := f.Forward(rec, httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil), backend.URL)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if etag != "" {
		t.Fatalf("Forward handed back %q from a 500; only a 200 or 304 carries a validator", etag)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("relayed status %d, want 500", rec.Code)
	}
	if m := f.Metrics(); m.Peers[0].Failures != 1 || m.Peers[0].Forwards != 0 {
		t.Fatalf("metrics after 5xx: %+v", m)
	}
}

// TestForwarderTruncatedBody: once the owner's status line is relayed, a
// body cut short is not an error the caller could fall back on — serving
// locally would write a second response — and its ETag is not handed
// back as a validator.
func TestForwarderTruncatedBody(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"abc-j"`)
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("short")) //nolint:errcheck // test backend
	}))
	defer backend.Close()
	f, err := NewForwarder(Config{Self: "http://self", Peers: []string{"http://self", backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	etag, err := f.Forward(rec, httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil), backend.URL)
	if err != nil || etag != "" {
		t.Fatalf("Forward = %q, %v; want no validator and no error after the status went out", etag, err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != "100" {
		t.Fatalf("relayed %d with Content-Length %q", rec.Code, rec.Header().Get("Content-Length"))
	}
}
