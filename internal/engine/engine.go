// Package engine is the deterministic parallel batch-execution layer for
// simulation and analysis campaigns. It sits between the fine-grained
// parallel verifiers in internal/core and the serving layer in
// cmd/ttdcserve: a Campaign (a declarative grid over construction, n, D,
// (αT, αR), topology, workload, replications) expands into an ordered list
// of Jobs; a worker pool executes them; a JSONL journal records each
// finished job and enables checkpoint/resume.
//
// The determinism contract: given the same job list, the engine produces a
// byte-identical journal (and Report) regardless of the worker count and of
// the order in which workers happen to finish. Three mechanisms enforce it:
//
//   - per-job seeds are derived with stats.DeriveSeed from (campaign seed,
//     job index), never from a shared generator;
//   - job records carry no wall-clock fields — timing lives only in the
//     in-memory progress Snapshot;
//   - the journal writer emits records in strict job-index order, holding
//     out-of-order completions in a pending buffer, so an interrupted
//     journal is always a clean prefix of the uninterrupted one.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work. Run receives a context for cancellation; its
// result must be JSON-marshalable (it becomes the journal record's payload)
// and must depend only on the job's inputs and Seed, never on global state,
// or the determinism contract breaks.
type Job struct {
	// ID names the job in journals, tables, and failure summaries.
	ID string
	// Seed is the job's deterministic seed, recorded in the journal.
	Seed uint64
	// Run computes the job's result.
	Run func(ctx context.Context) (any, error)
}

// Record is one journal line: the outcome of one job. It contains only
// deterministic fields — no timestamps, no durations — so journals are
// byte-identical across runs, worker counts, and resumes.
type Record struct {
	Index  int             `json:"index"`
	ID     string          `json:"id"`
	Seed   uint64          `json:"seed"`
	Status string          `json:"status"` // StatusOK or StatusFail
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Job outcome statuses.
const (
	StatusOK   = "ok"
	StatusFail = "fail"
)

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size; 0 or negative means GOMAXPROCS.
	Workers int
	// Journal, when non-nil, records completed jobs and supplies the
	// finished set for resume: jobs whose index already appears in the
	// journal are not re-executed.
	Journal *Journal
}

// Engine runs one job list through a worker pool. Create one per campaign
// run with New; Run may be called once. Stats is safe to call concurrently
// with Run (it backs TTY progress lines and the ttdcserve /metrics and
// /jobs surfaces).
type Engine struct {
	workers int
	journal *Journal

	total     atomic.Int64
	completed atomic.Int64 // executed, status ok
	failed    atomic.Int64 // executed, status fail
	skipped   atomic.Int64 // replayed from the journal
	inflight  atomic.Int64
	startNS   atomic.Int64

	// now is the injected clock. It feeds only progress reporting
	// (Report.Elapsed, Snapshot.ElapsedSeconds) — never journal bytes —
	// and exists so tests can drive timing deterministically.
	now func() time.Time
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	//lint:ignore walltime single injection point; timing feeds progress output only, never journal bytes
	return &Engine{workers: w, journal: opts.Journal, now: time.Now}
}

// Report is the outcome of a completed (or cancelled) run.
type Report struct {
	// Records holds one record per finished job, in job-index order,
	// including records replayed from the journal. On cancellation it is
	// the finished prefix.
	Records []Record
	// Completed and Failed count executed jobs by status; Skipped counts
	// journal replays.
	Completed, Failed, Skipped int
	// Elapsed is the wall-clock duration of this run.
	Elapsed time.Duration
}

// FailedIDs returns the IDs of records with StatusFail, in index order.
func (r *Report) FailedIDs() []string {
	var ids []string
	for _, rec := range r.Records {
		if rec.Status == StatusFail {
			ids = append(ids, rec.ID)
		}
	}
	return ids
}

// Run executes jobs on the worker pool. It returns when every job has
// finished (possibly with StatusFail — a failing or panicking job fails
// that job, not the campaign) or when ctx is cancelled, in which case it
// returns the finished prefix alongside ctx's error.
func (e *Engine) Run(ctx context.Context, jobs []Job) (*Report, error) {
	start := e.now()
	e.startNS.Store(start.UnixNano())
	e.total.Store(int64(len(jobs)))

	// Resume set: journal records for indices this job list covers. A
	// journal written for a different job list is a caller bug worth
	// failing loudly on, so IDs must match.
	done := make(map[int]Record)
	if e.journal != nil {
		for _, rec := range e.journal.Records() {
			if rec.Index < 0 || rec.Index >= len(jobs) {
				return nil, fmt.Errorf("engine: journal index %d outside job list [0, %d)", rec.Index, len(jobs))
			}
			if rec.ID != jobs[rec.Index].ID {
				return nil, fmt.Errorf("engine: journal record %d is %q, campaign job is %q — wrong journal for this campaign",
					rec.Index, rec.ID, jobs[rec.Index].ID)
			}
			done[rec.Index] = rec
		}
		e.skipped.Store(int64(len(done)))
	}

	results := make(chan Record, e.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(jobs) {
					return
				}
				if _, ok := done[idx]; ok {
					continue // finished in a previous run
				}
				e.inflight.Add(1)
				rec := e.execute(ctx, idx, jobs[idx])
				e.inflight.Add(-1)
				if rec.Status != StatusOK && ctx.Err() != nil {
					// Cancelled under this job: leave it unrecorded so the
					// journal stays a prefix and a resume runs it again.
					return
				}
				if rec.Status == StatusOK {
					e.completed.Add(1)
				} else {
					e.failed.Add(1)
				}
				results <- rec
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single writer: emit records in strict index order so the journal is
	// byte-identical whatever the completion order was. Indices already in
	// the journal are replayed into the report without rewriting.
	out := make([]Record, 0, len(jobs))
	pending := make(map[int]Record)
	nextWrite := 0
	var writeErr error
	advance := func() {
		for nextWrite < len(jobs) {
			if rec, ok := done[nextWrite]; ok {
				out = append(out, rec)
				nextWrite++
				continue
			}
			rec, ok := pending[nextWrite]
			if !ok {
				return
			}
			delete(pending, nextWrite)
			if e.journal != nil && writeErr == nil {
				writeErr = e.journal.Append(rec)
			}
			out = append(out, rec)
			nextWrite++
		}
	}
	advance()
	for rec := range results {
		pending[rec.Index] = rec
		advance()
	}
	advance()

	rep := &Report{
		Records:   out,
		Completed: int(e.completed.Load()),
		Failed:    int(e.failed.Load()),
		Skipped:   int(e.skipped.Load()),
		Elapsed:   e.now().Sub(start),
	}
	if writeErr != nil {
		return rep, fmt.Errorf("engine: journal write: %w", writeErr)
	}
	return rep, ctx.Err()
}

// execute runs one job with panic isolation: a panicking job produces a
// StatusFail record for that job instead of tearing down the campaign.
func (e *Engine) execute(ctx context.Context, idx int, job Job) (rec Record) {
	rec = Record{Index: idx, ID: job.ID, Seed: job.Seed}
	defer func() {
		if p := recover(); p != nil {
			rec.Status = StatusFail
			rec.Result = nil
			rec.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	v, err := job.Run(ctx)
	if err != nil {
		rec.Status = StatusFail
		rec.Error = err.Error()
		return rec
	}
	payload, err := json.Marshal(v)
	if err != nil {
		rec.Status = StatusFail
		rec.Error = fmt.Sprintf("marshal result: %v", err)
		return rec
	}
	rec.Status = StatusOK
	rec.Result = payload
	return rec
}
