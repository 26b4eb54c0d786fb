package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/schedcache"
)

func postCampaign(t *testing.T, ts *httptest.Server, doc string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s status = %d", id, resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitDone polls the status endpoint until the run leaves stateRunning.
func awaitDone(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State != stateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s still running after 10s", id)
	return statusResponse{}
}

func TestJobsSubmitAndFetch(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"api","n":[9,16],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","frames":3,"seed":11}`)
	if sub.Jobs != 2 || sub.Path != "/jobs/"+sub.ID {
		t.Fatalf("submit = %+v", sub)
	}
	st := awaitDone(t, ts, sub.ID)
	if st.State != stateDone {
		t.Fatalf("state = %s, error = %s", st.State, st.Error)
	}
	if len(st.Results) != 2 || len(st.FailedJobs) != 0 {
		t.Fatalf("results = %d, failed = %v", len(st.Results), st.FailedJobs)
	}
	var m engine.Metrics
	if err := json.Unmarshal(st.Results[0].Result, &m); err != nil {
		t.Fatal(err)
	}
	if m.Covered == 0 {
		t.Fatalf("flood metrics = %+v", m)
	}
	if st.Stats.Done != 2 {
		t.Fatalf("stats = %+v", st.Stats)
	}
}

// TestJobsHoldEveryConstructionToLimits: a /jobs campaign is held to the
// serving limits whatever its construction. The key must validate, and
// n×L must fit the build budget, from closed forms before anything is
// built. Each case below was built in full when only polynomial jobs
// were checked.
func TestJobsHoldEveryConstructionToLimits(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	for _, tc := range []struct{ doc, msg string }{
		// A TDMA frame is n slots: 12000² cells is 2.1× the budget.
		{`{"construction":"tdma","n":[12000],"d":[2]}`,
			"base schedule for N(12000, 2) needs frame length 12000; n×L = 144000000 exceeds the build budget 67108864"},
		// The least prime p >= D = 90 is 97, a plane of 9507 points.
		{`{"construction":"projective","n":[8200],"d":[90]}`,
			"base schedule for N(8200, 90) needs frame length 9507; n×L = 77957400 exceeds the build budget 67108864"},
		// Theorem 7: (1, 1) caps stretch each of TDMA's 420 slots to 419.
		{`{"construction":"tdma","n":[420],"d":[2],"duty":[{"alphaT":1,"alphaR":1}]}`,
			"(1, 1)-schedule for N(420, 2) needs frame length 175980; n×L = 73911600 exceeds the build budget 67108864"},
		{`{"construction":"steiner","n":[9],"d":[20]}`, "schedcache: D = 20 outside [1, 8]"},
	} {
		sub := postCampaign(t, ts, tc.doc)
		st := awaitDone(t, ts, sub.ID)
		if st.State != stateDone || len(st.Results) != 1 {
			t.Fatalf("%s: state %s with %d results", tc.doc, st.State, len(st.Results))
		}
		if rec := st.Results[0]; rec.Status != engine.StatusFail || !strings.Contains(rec.Error, tc.msg) {
			t.Errorf("%s: status %s, error %q; want a failure naming %q", tc.doc, rec.Status, rec.Error, tc.msg)
		}
	}
}

func TestJobsRejectsBadCampaign(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	for _, doc := range []string{`{"n":[9],"d":[2],"workload":"warp"}`, `{`, `{"n":[],"d":[2]}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %q: status %d, want 400", doc, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/c999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing campaign: status %d, want 404", resp.StatusCode)
	}
}

func TestJobsListAndMetrics(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		sub := postCampaign(t, ts, fmt.Sprintf(`{"n":[9],"d":[2],"workload":"analysis","seed":%d}`, i))
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		awaitDone(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d campaigns, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
		if len(st.Results) != 0 {
			t.Errorf("list endpoint leaked %d results", len(st.Results))
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck // test
	var metrics struct {
		Engine map[string]int64 `json:"engine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Engine["campaigns"] != 3 || metrics.Engine["jobs_done"] != 3 {
		t.Errorf("engine metrics = %v", metrics.Engine)
	}
}

// TestJobsCacheBytesBound: campaign runs' schedule cache is held to the
// service's byte budget and reports under "jobs_cache" in /metrics. The
// campaigns' schedules outweigh the budget several times over; what stays
// resident is within it, and the most recent schedule fits and stays.
func TestJobsCacheBytesBound(t *testing.T) {
	const budget = 1 << 20
	ts := httptest.NewServer(NewHandler(NewServiceBytes(64, budget), Options{}))
	defer ts.Close()
	var scheduleBytes int64
	for n := 124; n >= 64; n -= 10 {
		s, err := schedcache.Build(schedcache.Key{N: n, D: 2, AlphaT: 2, AlphaR: 4})
		if err != nil {
			t.Fatal(err)
		}
		scheduleBytes += schedcache.ScheduleBytes(s)
		sub := postCampaign(t, ts, fmt.Sprintf(`{"n":[%d],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"analysis"}`, n))
		if st := awaitDone(t, ts, sub.ID); st.State != stateDone || len(st.FailedJobs) != 0 {
			t.Fatalf("n=%d: state %s, failed %v", n, st.State, st.FailedJobs)
		}
	}
	if scheduleBytes <= 2*budget {
		t.Fatalf("the campaigns' schedules total %d bytes; the test needs well over the %d budget", scheduleBytes, budget)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	var metrics struct {
		JobsCache *schedcache.Stats `json:"jobs_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	st := metrics.JobsCache
	if st == nil {
		t.Fatal(`/metrics has no "jobs_cache" block`)
	}
	if st.CapacityBytes != budget || st.Bytes > budget {
		t.Fatalf("jobs cache holds %d bytes against a %d-byte bound, want at most %d: %+v", st.Bytes, st.CapacityBytes, budget, st)
	}
	if st.Constructions != 7 || st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("want seven builds, the last schedule resident and earlier ones evicted: %+v", st)
	}
}

// TestDrainWaitsForRuns submits a campaign and drains: Drain must block
// until the run finishes and then report it done.
func TestDrainWaitsForRuns(t *testing.T) {
	svc := NewService(0)
	ts := httptest.NewServer(NewHandler(svc, Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"drain","n":[9,16,25],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","frames":50,"seed":7}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := getStatus(t, ts, sub.ID); st.State == stateRunning {
		t.Fatalf("campaign still running after Drain: %+v", st)
	}
}

// TestDrainCancelledContext drains with an already-cancelled context: the
// in-flight run is aborted rather than awaited, no run is left in
// stateRunning afterwards, and new submissions are refused.
func TestDrainCancelledContext(t *testing.T) {
	svc := NewService(0)
	ts := httptest.NewServer(NewHandler(svc, Options{}))
	defer ts.Close()

	sub := postCampaign(t, ts,
		`{"name":"abort","n":[25],"d":[2,3],"duty":[{"alphaT":2,"alphaR":4},{"alphaT":3,"alphaR":5}],"workload":"flood","frames":5000,"seed":3}`)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Either the run was cancelled (ctx error) or it finished in the gap
	// before Drain observed the cancellation; both leave nothing running.
	if err := svc.Drain(ctx); err != nil && err != context.Canceled {
		t.Fatalf("Drain: %v", err)
	}
	if st := getStatus(t, ts, sub.ID); st.State == stateRunning {
		t.Fatalf("campaign still running after cancelled Drain: %+v", st)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"n":[9],"d":[2],"workload":"analysis"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
}
