package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/schedcache"
)

// maxStoredRuns bounds the in-memory campaign table; past it, submissions
// are refused rather than growing without limit.
const maxStoredRuns = 256

// Campaign run states.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed" // the engine itself errored (not: some jobs failed)
)

// campaignRun is one submitted campaign: the engine executing it (whose
// Stats snapshot is readable while it runs) and, once finished, its
// report.
type campaignRun struct {
	id   string
	name string
	jobs int
	eng  *engine.Engine

	mu     sync.Mutex
	state  string
	report *engine.Report
	err    error
}

// Jobs implements the async campaign endpoints:
//
//	POST /jobs        submit a campaign JSON document; returns its run ID
//	GET  /jobs        list runs in submission order
//	GET  /jobs/{id}   progress snapshot; full results once done
//
// Runs execute in-process on the engine worker pool, and the serving
// limits bound every schedule a run builds, as they bound /schedule.
// Every accepted run is tracked by a WaitGroup so a shutting-down server
// can Drain: wait for accepted work, cancelling it if the drain deadline
// expires first.
type Jobs struct {
	// baseCtx parents every run; cancel aborts them all when a drain
	// deadline expires.
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool

	mu    sync.Mutex
	runs  map[string]*campaignRun
	order []string
	seq   int
}

// NewJobs builds the campaign API.
func NewJobs() *Jobs {
	//lint:ignore ctxcancel cancel is retained on the struct: Drain calls it when its deadline expires, aborting in-flight campaign runs
	ctx, cancel := context.WithCancel(context.Background())
	return &Jobs{baseCtx: ctx, cancel: cancel, runs: make(map[string]*campaignRun)}
}

// Drain blocks until every accepted campaign run has finished. If ctx
// expires first, the runs are cancelled (the engine honors cancellation
// promptly), the wait completes, and ctx's error is returned. New
// submissions are refused once draining starts.
func (a *Jobs) Drain(ctx context.Context) error {
	a.draining.Store(true)
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		a.cancel()
		<-done
		return ctx.Err()
	}
}

type submitResponse struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Jobs  int    `json:"jobs"`
	State string `json:"state"`
	Path  string `json:"path"`
}

type statusResponse struct {
	ID         string          `json:"id"`
	Name       string          `json:"name,omitempty"`
	Jobs       int             `json:"jobs"`
	State      string          `json:"state"`
	Stats      engine.Snapshot `json:"stats"`
	Error      string          `json:"error,omitempty"`
	FailedJobs []string        `json:"failedJobs,omitempty"`
	Results    []engine.Record `json:"results,omitempty"`
}

func (a *Jobs) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("ttdcserve: draining; not accepting campaigns"))
		return
	}
	c, err := engine.DecodeCampaign(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs, err := engine.Jobs(c, &schedcache.ServingLimits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	a.mu.Lock()
	if len(a.runs) >= maxStoredRuns {
		a.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("ttdcserve: %d campaigns stored; drain before submitting more", maxStoredRuns))
		return
	}
	a.seq++
	run := &campaignRun{
		id:    fmt.Sprintf("c%d", a.seq),
		name:  c.Name,
		jobs:  len(jobs),
		eng:   engine.New(engine.Options{}),
		state: stateRunning,
	}
	a.runs[run.id] = run
	a.order = append(a.order, run.id)
	a.mu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		rep, err := run.eng.Run(a.baseCtx, jobs)
		run.mu.Lock()
		defer run.mu.Unlock()
		run.report = rep
		if err != nil {
			run.state = stateFailed
			run.err = err
			return
		}
		run.state = stateDone
	}()

	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: run.id, Name: run.name, Jobs: run.jobs, State: stateRunning, Path: "/jobs/" + run.id,
	})
}

func (a *Jobs) handleGet(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	run, ok := a.runs[r.PathValue("id")]
	a.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("ttdcserve: no campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run.status(true))
}

func (a *Jobs) handleList(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	ids := append([]string(nil), a.order...)
	a.mu.Unlock()
	out := make([]statusResponse, 0, len(ids))
	for _, id := range ids {
		a.mu.Lock()
		run := a.runs[id]
		a.mu.Unlock()
		out = append(out, run.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

// status snapshots the run; withResults attaches the full record list of a
// finished run (the list endpoint omits it).
func (run *campaignRun) status(withResults bool) statusResponse {
	run.mu.Lock()
	defer run.mu.Unlock()
	resp := statusResponse{
		ID: run.id, Name: run.name, Jobs: run.jobs,
		State: run.state, Stats: run.eng.Stats(),
	}
	if run.err != nil {
		resp.Error = run.err.Error()
	}
	if run.report != nil {
		resp.FailedJobs = run.report.FailedIDs()
		if withResults {
			resp.Results = run.report.Records
		}
	}
	return resp
}

// metrics aggregates every run's counters for /metrics.
func (a *Jobs) metrics() map[string]int64 {
	a.mu.Lock()
	ids := append([]string(nil), a.order...)
	a.mu.Unlock()
	out := map[string]int64{
		"campaigns": int64(len(ids)), "running": 0,
		"jobs_total": 0, "jobs_done": 0, "jobs_failed": 0, "jobs_in_flight": 0,
	}
	for _, id := range ids {
		a.mu.Lock()
		run := a.runs[id]
		a.mu.Unlock()
		run.mu.Lock()
		if run.state == stateRunning {
			out["running"]++
		}
		run.mu.Unlock()
		s := run.eng.Stats()
		out["jobs_total"] += s.Total
		out["jobs_done"] += s.Done
		out["jobs_failed"] += s.Failed
		out["jobs_in_flight"] += s.InFlight
	}
	return out
}
