package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/wire"
)

// scheduleResponse decodes a JSON /schedule document: the embedded
// schedule and the fields buildArtifact appends after it.
type scheduleResponse struct {
	Schedule json.RawMessage `json:"schedule"`
	scheduleFields
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec, body
}

func TestScheduleEndpoint(t *testing.T) {
	svc := NewService(16)
	h := NewHandler(svc, Options{})
	rec, body := get(t, h, "/schedule?n=25&D=2&alphaT=3&alphaR=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != JSONContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if resp.N != 25 || resp.D != 2 || resp.AlphaT != 3 || resp.AlphaR != 5 || resp.Strategy != "sequential" {
		t.Fatalf("request echo wrong: %+v", resp)
	}
	// The embedded schedule must be the DecodeSchedule wire format.
	s, err := ttdc.DecodeSchedule(bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatalf("embedded schedule does not decode: %v", err)
	}
	if s.N() != 25 || s.L() != resp.L {
		t.Fatalf("embedded schedule shape n=%d L=%d vs l=%d", s.N(), s.L(), resp.L)
	}
	if !s.IsAlphaSchedule(3, 5) || !ttdc.IsTopologyTransparent(s, 2) {
		t.Fatal("served schedule violates caps or topology transparency")
	}
	if got := s.ActiveFraction(); got != resp.ActiveFraction {
		t.Fatalf("activeFraction %v vs %v", resp.ActiveFraction, got)
	}
	want := ttdc.AvgThroughput(s, 2)
	if resp.AvgThroughput != want.RatString() {
		t.Fatalf("avgThroughput %q, want %q", resp.AvgThroughput, want.RatString())
	}
	if resp.AvgThroughputFloat != ttdc.RatFloat(want) {
		t.Fatalf("avgThroughputFloat %v, want %v", resp.AvgThroughputFloat, ttdc.RatFloat(want))
	}
	if st := svc.Cache().Stats(); st.Constructions != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after one request: %+v", st)
	}
	// Second identical request: a fully warm hit — nothing is built or
	// encoded again.
	rec2, _ := get(t, h, "/schedule?n=25&D=2&alphaT=3&alphaR=5")
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rec2.Code)
	}
	if got := rec2.Header().Get("X-Ttdc-Cache"); got != "hit" {
		t.Fatalf("repeat X-Ttdc-Cache = %q, want hit", got)
	}
	if st := svc.Cache().Stats(); st.Constructions != 1 {
		t.Fatalf("cache stats after repeat: %+v", st)
	}
	if as := svc.Cache().Stats(); as.Hits != 1 || as.Misses != 1 || as.Entries != 1 {
		t.Fatalf("artifact stats after repeat: %+v", as)
	}
}

func TestScheduleNonSleepingDefault(t *testing.T) {
	h := NewHandler(NewService(4), Options{})
	rec, body := get(t, h, "/schedule?n=9&D=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	s, err := ttdc.DecodeSchedule(bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsNonSleeping() {
		t.Fatal("capless request should serve the non-sleeping base schedule")
	}
	if resp.ActiveFraction != 1 {
		t.Fatalf("non-sleeping activeFraction = %v", resp.ActiveFraction)
	}
}

// TestScheduleBadRequests pins the status and the error message of each
// malformed or unbuildable request.
func TestScheduleBadRequests(t *testing.T) {
	h := NewHandler(NewService(4), Options{})
	cases := []struct {
		path string
		code int
		msg  string
	}{
		{"/schedule", http.StatusBadRequest, "parameter n is required"},
		{"/schedule?n=0&D=2", http.StatusBadRequest, "parameter n is required"},
		{"/schedule?n=25", http.StatusBadRequest, "parameter D is required"},
		{"/schedule?n=x&D=2", http.StatusBadRequest, `parameter n="x" is not an integer`},
		{"/schedule?n=9&D=x", http.StatusBadRequest, `parameter D="x" is not an integer`},
		{"/schedule?n=9&D=2&alphaT=x", http.StatusBadRequest, `parameter alphaT="x" is not an integer`},
		{"/schedule?n=9&D=2&alphaT=1&alphaR=y", http.StatusBadRequest, `parameter alphaR="y" is not an integer`},
		{"/schedule?n=25&D=2&alphaT=3", http.StatusBadRequest, "schedcache: set both alphaT and alphaR or neither (got 3, 0)"},
		{"/schedule?n=9&D=2&alphaT=-1&alphaR=-1", http.StatusBadRequest, "schedcache: negative caps (-1, -1)"},
		{"/schedule?n=25&D=2&strategy=zigzag", http.StatusBadRequest, `schedcache: unknown division strategy "zigzag"`},
		{"/schedule?n=9&D=2&format=yaml", http.StatusBadRequest, `parameter format="yaml" must be "wire" or "json"`},
		{"/schedule?n=9&D=2&alphaT=8&alphaR=8", http.StatusUnprocessableEntity, "schedcache: Construct requires αT + αR <= n (got 8 + 8 > 9)"},
		{"/schedule?n=2&D=9", http.StatusBadRequest, "schedcache: D = 9 outside [1, 1]"},
		{"/schedule?n=999999999&D=3&alphaT=2&alphaR=4", http.StatusBadRequest, "schedcache: n = 999999999 exceeds the serving bound 65536"},
		{"/schedule?n=65536&D=1000", http.StatusUnprocessableEntity,
			"schedcache: base schedule for N(65536, 1000) needs frame length 1018081; n×L = 66720956416 exceeds the build budget 67108864"},
	}
	for _, tc := range cases {
		rec, body := get(t, h, tc.path)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, rec.Code, tc.code, body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error != tc.msg {
			t.Errorf("%s: error body %s, want message %q", tc.path, body, tc.msg)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule?n=9&D=2", strings.NewReader("{}")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestConcurrentScheduleRequests serves 100 concurrent /schedule requests
// over 4 distinct keys and asserts the construction layer deduplicated
// every burst to exactly one construction per distinct key. Must pass
// under -race.
func TestConcurrentScheduleRequests(t *testing.T) {
	svc := NewService(16)
	h := NewHandler(svc, Options{})
	paths := []string{
		"/schedule?n=25&D=2&alphaT=3&alphaR=5",
		"/schedule?n=25&D=2&alphaT=3&alphaR=5&strategy=balanced",
		"/schedule?n=16&D=2&alphaT=2&alphaR=4",
		"/schedule?n=9&D=2",
	}
	const requests = 100
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	done.Add(requests)
	for i := 0; i < requests; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d", i, rec.Code)
			}
		}(i)
	}
	start.Done()
	done.Wait()
	st := svc.Cache().Stats()
	if want := int64(len(paths)); st.Constructions != want {
		t.Fatalf("constructions = %d, want %d (one per distinct key); stats %+v", st.Constructions, want, st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d", st.Inflight)
	}
	as := svc.Cache().Stats()
	if as.Hits+as.Misses != requests {
		t.Fatalf("artifact hits %d + misses %d != %d requests", as.Hits, as.Misses, requests)
	}
	if as.Entries != int64(len(paths)) {
		t.Fatalf("artifact entries = %d, want %d", as.Entries, len(paths))
	}
}

// TestConditionalRequests drives the ETag / If-None-Match / Cache-Control
// flow a fleet client uses to revalidate a schedule for free.
func TestConditionalRequests(t *testing.T) {
	h := NewHandler(NewService(8), Options{})
	rec, body := get(t, h, "/schedule?n=9&D=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	etag := rec.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `-j"`) {
		t.Fatalf("JSON ETag %q not a quoted -j tag", etag)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != fmt.Sprintf("public, max-age=%d", DefaultMaxAge) {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if got := rec.Header().Get("X-Ttdc-Cache"); got != "miss" {
		t.Fatalf("first X-Ttdc-Cache = %q, want miss", got)
	}

	// Revalidation with the matching tag: 304, no body, tag echoed.
	req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", rec2.Code)
	}
	if rec2.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", rec2.Body.Len())
	}
	if rec2.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", rec2.Header().Get("ETag"), etag)
	}

	// A list containing the tag, and the * wildcard, both match.
	for _, inm := range []string{`"nope", ` + etag, "*"} {
		req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
		req.Header.Set("If-None-Match", inm)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
	}

	// The JSON tag must NOT revalidate the wire representation.
	req = httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2&format=wire", nil)
	req.Header.Set("If-None-Match", etag)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("wire with JSON tag: status %d, want 200", rec3.Code)
	}
	wireTag := rec3.Header().Get("ETag")
	if !strings.HasSuffix(wireTag, `-w"`) {
		t.Fatalf("wire ETag %q not a -w tag", wireTag)
	}
	if strings.TrimSuffix(etag, `-j"`) != strings.TrimSuffix(wireTag, `-w"`) {
		t.Fatalf("representations disagree on content digest: %q vs %q", etag, wireTag)
	}
}

// TestWireNegotiation covers the Accept header and ?format override, and
// pins the wire body byte-identical to a direct internal/wire encoding.
func TestWireNegotiation(t *testing.T) {
	svc := NewService(8)
	h := NewHandler(svc, Options{})

	req := httptest.NewRequest(http.MethodGet, "/schedule?n=25&D=2&alphaT=3&alphaR=5", nil)
	req.Header.Set("Accept", "application/x-ttdc-wire, application/json;q=0.5")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != WireContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, WireContentType)
	}
	body := rec.Body.Bytes()
	f, err := wire.Decode(body)
	if err != nil {
		t.Fatalf("served wire frame does not decode: %v", err)
	}
	if f.N != 25 || f.D != 2 || f.AlphaT != 3 || f.AlphaR != 5 {
		t.Fatalf("decoded frame echo: %+v", f)
	}
	a, _, err := svc.Artifact(schedcache.Key{N: f.N, D: f.D, AlphaT: f.AlphaT, AlphaR: f.AlphaR, Strategy: f.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, a.Wire) {
		t.Fatal("HTTP wire body differs from the artifact encoding")
	}
	reenc, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, reenc) {
		t.Fatal("decode+re-encode of the HTTP body is not byte-identical")
	}
	if got := `"` + wire.Digest(body) + `-w"`; rec.Header().Get("ETag") != got {
		t.Fatalf("wire ETag %q, want digest-derived %q", rec.Header().Get("ETag"), got)
	}

	// ?format=json overrides an Accept asking for wire.
	req2 := httptest.NewRequest(http.MethodGet, "/schedule?n=25&D=2&alphaT=3&alphaR=5&format=json", nil)
	req2.Header.Set("Accept", WireContentType)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if ct := rec2.Header().Get("Content-Type"); rec2.Code != http.StatusOK || ct != JSONContentType {
		t.Fatalf("format=json override: %d %q", rec2.Code, ct)
	}
	// Plain Accept gets JSON.
	rec3, _ := get(t, h, "/schedule?n=25&D=2&alphaT=3&alphaR=5")
	if ct := rec3.Header().Get("Content-Type"); ct != JSONContentType {
		t.Fatalf("default Content-Type = %q", ct)
	}
}

func TestHeadRequest(t *testing.T) {
	h := NewHandler(NewService(4), Options{})
	req := httptest.NewRequest(http.MethodHead, "/schedule?n=9&D=2", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD status %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("HEAD carried a %d-byte body", rec.Body.Len())
	}
	if cl := rec.Header().Get("Content-Length"); cl == "" || cl == "0" {
		t.Fatalf("HEAD Content-Length = %q", cl)
	}
	if rec.Header().Get("ETag") == "" {
		t.Fatal("HEAD lost the ETag")
	}
}

func TestMaxAgeOption(t *testing.T) {
	h := NewHandler(NewService(4), Options{MaxAge: 60})
	rec, _ := get(t, h, "/schedule?n=9&D=2")
	if cc := rec.Header().Get("Cache-Control"); cc != "public, max-age=60" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	h = NewHandler(NewService(4), Options{MaxAge: -1})
	rec, _ = get(t, h, "/schedule?n=9&D=2")
	if cc := rec.Header().Get("Cache-Control"); cc != "" {
		t.Fatalf("MaxAge<0 still sent Cache-Control %q", cc)
	}
}

func TestHealthz(t *testing.T) {
	rec, body := get(t, NewHandler(NewService(4), Options{}), "/healthz")
	if rec.Code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", rec.Code, body)
	}
}

func TestMetrics(t *testing.T) {
	svc := NewService(4)
	h := NewHandler(svc, Options{})
	for i := 0; i < 3; i++ {
		if rec, _ := get(t, h, "/schedule?n=9&D=2"); rec.Code != http.StatusOK {
			t.Fatalf("warmup status %d", rec.Code)
		}
	}
	get(t, h, "/schedule?n=bogus&D=2") // a 400 also counts as a request

	// One revalidation so the 304 counter is visible.
	req := httptest.NewRequest(http.MethodGet, "/schedule?n=9&D=2", nil)
	req.Header.Set("If-None-Match", "*")
	h.ServeHTTP(httptest.NewRecorder(), req)

	rec, body := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m struct {
		Cache       map[string]int64 `json:"cache"`
		Artifacts   ArtifactStats    `json:"artifacts"`
		Requests    int64            `json:"requests"`
		NotModified int64            `json:"not_modified"`
		Latency     map[string]int64 `json:"schedule_latency"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Cache["misses"] != 1 || m.Cache["constructions"] != 1 {
		t.Fatalf("cache metrics: %v", m.Cache)
	}
	if m.Cache["capacity"] != 4 || m.Cache["entries"] != 1 {
		t.Fatalf("cache shape metrics: %v", m.Cache)
	}
	if m.Cache["bytes"] <= 0 {
		t.Fatalf("cache bytes gauge = %d, want > 0", m.Cache["bytes"])
	}
	if m.Artifacts.Misses != 1 || m.Artifacts.Hits != 3 || m.Artifacts.Bytes <= 0 {
		t.Fatalf("artifact metrics: %+v", m.Artifacts)
	}
	if m.Requests != 5 {
		t.Fatalf("requests = %d, want 5", m.Requests)
	}
	if m.NotModified != 1 {
		t.Fatalf("not_modified = %d, want 1", m.NotModified)
	}
	if m.Latency["count"] != 5 || m.Latency["le_inf"] != 5 {
		t.Fatalf("latency histogram: %v", m.Latency)
	}
	// Cumulative buckets must be monotone up to le_inf.
	prev := int64(0)
	for _, b := range latencyBuckets {
		cur := m.Latency["le_"+b.String()]
		if cur < prev {
			t.Fatalf("histogram not cumulative: %v", m.Latency)
		}
		prev = cur
	}
	if m.Latency["le_inf"] < prev {
		t.Fatalf("le_inf below last bucket: %v", m.Latency)
	}
}

func ExampleNewHandler() {
	h := NewHandler(NewService(4), Options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schedule?n=25&D=2&alphaT=3&alphaR=5", nil))
	var resp scheduleResponse
	json.Unmarshal(rec.Body.Bytes(), &resp) //nolint:errcheck
	fmt.Println(rec.Code, resp.L, resp.AvgThroughput)
	// Output: 200 200 21/920
}
