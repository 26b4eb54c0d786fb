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
	"repro/internal/stats"
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

// TestJobOutcomeSameAtEveryEntryPoint: a job's outcome does not depend on
// the entry point that runs it. Each campaign below runs through lone
// ExecuteJob calls with nil limits, through Jobs with TrustedLimits and
// Run, and through POST /jobs, and all three must give every job the same
// status, error text and result bytes. Construct refuses the first job's
// caps with an error text of its own, so the first job fails alike only
// where every entry point checks the caps before Construct runs.
func TestJobOutcomeSameAtEveryEntryPoint(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewService(0), Options{}))
	defer ts.Close()
	ctx := context.Background()
	for _, tc := range []struct{ doc, fail string }{
		{`{"n":[9],"d":[2],"duty":[{"alphaT":5,"alphaR":5}]}`,
			"schedcache: Construct requires αT + αR <= n (got 5 + 5 > 9)"},
		{`{"construction":"steiner","n":[12],"d":[3]}`,
			"schedcache: steiner construction supports D = 2 only (got 3)"},
		{`{"n":[25],"d":[2],"duty":[{"alphaT":3,"alphaR":5}]}`, ""},
		{`{"n":[25],"d":[2],"duty":[{"alphaT":3,"alphaR":5}],"strategy":"balanced"}`, ""},
		{`{"n":[25],"d":[2]}`, ""},
	} {
		c, err := engine.DecodeCampaign(strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		specs, err := c.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var lone []engine.Record
		for i, spec := range specs {
			rec := engine.Record{Index: i, ID: spec.ID(), Seed: stats.DeriveSeed(c.Seed, uint64(i)), Status: engine.StatusOK}
			m, err := engine.ExecuteJob(ctx, spec, rec.Seed, nil)
			if err != nil {
				rec.Status, rec.Error = engine.StatusFail, err.Error()
			} else if rec.Result, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			lone = append(lone, rec)
		}
		jobs, err := engine.Jobs(c, &schedcache.TrustedLimits)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := engine.New(engine.Options{}).Run(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		served := awaitDone(t, ts, postCampaign(t, ts, tc.doc).ID)
		if len(rep.Records) != len(lone) || len(served.Results) != len(lone) {
			t.Fatalf("%s: %d lone jobs, %d run, %d served", tc.doc, len(lone), len(rep.Records), len(served.Results))
		}
		outcome := func(r engine.Record) string {
			return fmt.Sprintf("%s (seed %d) %s: error %q, result %s", r.ID, r.Seed, r.Status, r.Error, r.Result)
		}
		for i, want := range lone {
			if (tc.fail == "") != (want.Status == engine.StatusOK) || want.Error != tc.fail {
				t.Errorf("%s: ExecuteJob gave %s, want error %q", tc.doc, outcome(want), tc.fail)
			}
			if got := outcome(rep.Records[i]); got != outcome(want) {
				t.Errorf("%s: Jobs and Run gave %s, ExecuteJob %s", tc.doc, got, outcome(want))
			}
			if got := outcome(served.Results[i]); got != outcome(want) {
				t.Errorf("%s: POST /jobs gave %s, ExecuteJob %s", tc.doc, got, outcome(want))
			}
		}
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
