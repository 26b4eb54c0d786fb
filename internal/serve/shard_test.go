package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/schedcache"
	"repro/internal/shard"
)

// swappable lets httptest servers start before their handlers exist —
// the forwarder config needs every peer's URL up front.
type swappable struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappable) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// testRing spins up n in-process peers, each a full serve handler with a
// forwarder over the shared ring. Returns the servers and forwarders in
// peer order; cleanup closes the servers.
func testRing(t testing.TB, n int) ([]*httptest.Server, []*shard.Forwarder) {
	t.Helper()
	servers, fwds, _ := testPeers(t, n, 0)
	return servers, fwds
}

// testPeers is testRing with Options.MaxAge set to maxAge, also returning
// each peer's handler state so tests can read its counters and step its
// validator clock.
func testPeers(t testing.TB, n, maxAge int) ([]*httptest.Server, []*shard.Forwarder, []*server) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	swaps := make([]*swappable, n)
	urls := make([]string, n)
	for i := range servers {
		swaps[i] = &swappable{}
		servers[i] = httptest.NewServer(swaps[i])
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	fwds := make([]*shard.Forwarder, n)
	peers := make([]*server, n)
	for i := range servers {
		f, err := shard.NewForwarder(shard.Config{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		fwds[i] = f
		peers[i] = newServer(NewService(32), Options{Forwarder: f, MaxAge: maxAge})
		swaps[i].set(peers[i].routes())
	}
	return servers, fwds, peers
}

// fetch GETs url over HTTP with the given Accept and If-None-Match (empty
// sends none) and returns the response with its drained body.
func fetch(t testing.TB, url, accept, inm string) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := tryFetch(url, accept, inm)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// tryFetch is fetch for goroutines other than the test's own.
func tryFetch(url, accept, inm string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	return resp, body, err
}

// ownedBy finds a schedule path whose key the ring assigns to peer
// urls[idx].
func ownedBy(t *testing.T, f *shard.Forwarder, owner string) (string, schedcache.Key) {
	t.Helper()
	for n := 5; n < 200; n++ {
		k := schedcache.Key{N: n, D: 2, AlphaT: 1, AlphaR: 2}
		if f.Owner(k.Canonical()) == owner {
			return "/schedule?" + k.Canonical(), k
		}
	}
	t.Fatalf("no key owned by %s", owner)
	return "", schedcache.Key{}
}

// TestShardForwarding: a request landing on the wrong peer is proxied one
// hop to the owner, and both peers' metrics agree on who served it.
func TestShardForwarding(t *testing.T) {
	servers, fwds := testRing(t, 3)
	owner := servers[1].URL
	path, _ := ownedBy(t, fwds[0], owner)
	if fwds[0].Self() == owner {
		t.Fatal("test needs a non-owner entry peer")
	}

	resp, err := http.Get(servers[0].URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(shard.ServedByHeader); got != owner {
		t.Fatalf("%s = %q, want owner %q", shard.ServedByHeader, got, owner)
	}
	var sr scheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("forwarded body not a schedule response: %v", err)
	}
	m := fwds[0].Metrics()
	var forwards int64
	for _, p := range m.Peers {
		forwards += p.Forwards
	}
	if forwards != 1 || m.LoopRejects != 0 {
		t.Fatalf("entry peer metrics: %+v", m)
	}

	// Hitting the owner directly serves locally: no second hop recorded.
	resp2, err := http.Get(owner + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck // test
	resp2.Body.Close()              //nolint:errcheck // test
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("owner-direct status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(shard.CacheHeader); got != "hit" {
		t.Fatalf("owner should have the schedule cached after the forward, got %q", got)
	}
}

// TestShardRelaysVaryAndLength: a key fetched through a non-owner carries
// the owner's Vary, so a shared cache in front of a peer cannot hand one
// representation to a client that asked for the other, and a 200 carries
// the owner's Content-Length instead of arriving chunked. The entry's own
// 304 sets Vary too.
func TestShardRelaysVaryAndLength(t *testing.T) {
	for _, accept := range []string{"", WireContentType} {
		// A fresh ring per representation: one learned digest would
		// answer both.
		servers, fwds := testRing(t, 2)
		entry, owner := servers[0].URL, servers[1].URL
		path, _ := ownedBy(t, fwds[0], owner)
		direct, _ := fetch(t, owner+path, accept, "")
		tag := direct.Header.Get("ETag")
		for _, step := range []struct {
			name     string
			inm      string
			status   int
			servedBy string
		}{
			{"forwarded 304", tag, http.StatusNotModified, owner},
			{"local 304", tag, http.StatusNotModified, entry},
			{"forwarded 200", "", http.StatusOK, owner},
		} {
			resp, body := fetch(t, entry+path, accept, step.inm)
			if resp.StatusCode != step.status || resp.Header.Get(shard.ServedByHeader) != step.servedBy {
				t.Fatalf("Accept %q, %s: status %d served by %s, want %d by %s", accept, step.name,
					resp.StatusCode, resp.Header.Get(shard.ServedByHeader), step.status, step.servedBy)
			}
			if v := resp.Header.Get("Vary"); v != "Accept" {
				t.Errorf("Accept %q, %s: Vary = %q, want Accept", accept, step.name, v)
			}
			if step.status != http.StatusOK {
				continue
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("Accept %q, %s: Content-Length %q, transfer encoding %v for a %d-byte body",
					accept, step.name, cl, resp.TransferEncoding, len(body))
			}
		}
	}
}

// TestShardLoopGuard: a request already marked forwarded, arriving at a
// peer that does not own its key, must be refused with 421 — never
// forwarded a second time.
func TestShardLoopGuard(t *testing.T) {
	_, fwds := testRing(t, 3)
	// A key NOT owned by peer 0.
	var path string
	for n := 5; n < 200; n++ {
		k := schedcache.Key{N: n, D: 2}
		if !fwds[0].Owns(k.Canonical()) {
			path = "/schedule?" + k.Canonical()
			break
		}
	}
	if path == "" {
		t.Fatal("peer 0 owns everything?")
	}
	svc := NewService(8)
	h := NewHandler(svc, Options{Forwarder: fwds[0]})
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(shard.ForwardedHeader, "http://someone")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("second hop status %d, want 421", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("421 body: %s", rec.Body.Bytes())
	}
	if m := fwds[0].Metrics(); m.LoopRejects != 1 {
		t.Fatalf("loopRejects = %d, want 1", m.LoopRejects)
	}
	// The same forwarded request at the actual owner is served normally.
	ownerIdx := -1
	for i, f := range fwds {
		if f.Owns(pathKey(path)) {
			ownerIdx = i
			break
		}
	}
	if ownerIdx < 0 {
		t.Fatal("no owner in ring")
	}
	h2 := NewHandler(NewService(8), Options{Forwarder: fwds[ownerIdx]})
	req2 := httptest.NewRequest(http.MethodGet, path, nil)
	req2.Header.Set(shard.ForwardedHeader, "http://someone")
	rec2 := httptest.NewRecorder()
	h2.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("owner refused a forwarded request: %d %s", rec2.Code, rec2.Body.Bytes())
	}
}

// pathKey recovers the canonical key string from a /schedule?... path.
func pathKey(path string) string {
	return path[len("/schedule?"):]
}

// TestShardLocalFallback: when the owner is unreachable the entry peer
// serves the key itself instead of failing the request.
func TestShardLocalFallback(t *testing.T) {
	// A two-peer ring where the second peer is a dead address.
	dead := "http://127.0.0.1:1"
	self := "http://self.invalid"
	f, err := shard.NewForwarder(shard.Config{Self: self, Peers: []string{self, dead}})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := ownedBy(t, f, dead)
	h := NewHandler(NewService(8), Options{Forwarder: f})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get(shard.ServedByHeader); got != self {
		t.Fatalf("%s = %q, want local %q", shard.ServedByHeader, got, self)
	}
	m := f.Metrics()
	if m.LocalFallbacks != 1 {
		t.Fatalf("localFallbacks = %d, want 1", m.LocalFallbacks)
	}
}

// TestShardMetricsExposed: the /metrics document carries the shard and
// warmer fragments when configured.
func TestShardMetricsExposed(t *testing.T) {
	_, fwds := testRing(t, 2)
	svc := NewService(8)
	wm, err := shard.NewWarmer(shard.WarmerConfig{
		Classes: []shard.Class{{N: 9, D: 2}},
		Build:   svc.Schedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc, Options{Forwarder: fwds[0], Warmer: wm})
	rec, body := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m struct {
		Shard      *shard.Metrics        `json:"shard"`
		Warmer     *shard.WarmerSnapshot `json:"warmer"`
		Validators map[string]int64      `json:"validators"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Shard == nil || m.Shard.Self != fwds[0].Self() {
		t.Fatalf("shard fragment missing or wrong: %+v", m.Shard)
	}
	if m.Warmer == nil || m.Warmer.Done {
		t.Fatalf("warmer fragment missing or already done: %+v", m.Warmer)
	}
	want := map[string]int64{"localNotModified": 0, "entries": 0}
	if !reflect.DeepEqual(m.Validators, want) {
		t.Fatalf("validators fragment = %v, want %v", m.Validators, want)
	}
}
