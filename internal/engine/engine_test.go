package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// testCampaign is small enough to run in milliseconds but crosses several
// grid axes and a randomized topology, so determinism failures (seed
// reuse, order dependence) would show up in its journal bytes.
func testCampaign() *Campaign {
	return &Campaign{
		Name:         "test",
		Construction: "polynomial",
		N:            []int{9, 16},
		D:            []int{2},
		Duty:         []DutyPoint{{}, {AlphaT: 2, AlphaR: 4}},
		Topology:     "geometric",
		Workload:     "saturation",
		Frames:       2,
		Replications: 2,
		Seed:         42,
	}
}

// runToJournal executes the campaign with the given worker count and
// returns the journal bytes.
func runToJournal(t *testing.T, c *Campaign, workers int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close() //nolint:errcheck // read-only after Run
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Options{Workers: workers, Journal: j}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed + rep.Failed; got != len(jobs) {
		t.Fatalf("executed %d of %d jobs", got, len(jobs))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJournalIdenticalAcrossWorkerCounts(t *testing.T) {
	c := testCampaign()
	serial := runToJournal(t, c, 1)
	if len(serial) == 0 {
		t.Fatal("empty journal")
	}
	for _, workers := range []int{2, 8} {
		parallel := runToJournal(t, c, workers)
		if string(serial) != string(parallel) {
			t.Errorf("workers=%d journal differs from workers=1:\n%s\n--- vs ---\n%s", workers, parallel, serial)
		}
	}
}

func TestReportMatchesJournalOrder(t *testing.T) {
	c := testCampaign()
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(jobs) {
		t.Fatalf("got %d records, want %d", len(rep.Records), len(jobs))
	}
	for i, rec := range rep.Records {
		if rec.Index != i {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if rec.ID != jobs[i].ID {
			t.Fatalf("record %d is %q, want %q", i, rec.ID, jobs[i].ID)
		}
		if rec.Status != StatusOK {
			t.Fatalf("job %s failed: %s", rec.ID, rec.Error)
		}
	}
}

// TestResumeAfterCancellation kills a run mid-campaign via context
// cancellation, then resumes against the same journal: the resumed run
// must execute only the missing jobs and the final journal must be
// byte-identical to an uninterrupted run's.
func TestResumeAfterCancellation(t *testing.T) {
	c := testCampaign()
	want := runToJournal(t, c, 1)

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel once three jobs have finished; workers stop pulling, so the
	// journal ends up a strict prefix.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Int64
	wrapped := make([]Job, len(jobs))
	for i, job := range jobs {
		job := job
		wrapped[i] = Job{ID: job.ID, Seed: job.Seed, Run: func(ctx context.Context) (any, error) {
			v, err := job.Run(ctx)
			if finished.Add(1) == 3 {
				cancel()
			}
			return v, err
		}}
	}
	rep, err := New(Options{Workers: 2, Journal: j}).Run(ctx, wrapped)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) == len(jobs) {
		t.Fatal("cancellation did not interrupt the campaign; resume path untested")
	}

	// Resume: only the remaining jobs may execute.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck // read-only after Run
	already := len(j2.Records())
	rep2, err := New(Options{Workers: 2, Journal: j2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != already {
		t.Errorf("resume skipped %d jobs, journal had %d", rep2.Skipped, already)
	}
	if got := rep2.Completed + rep2.Failed; got != len(jobs)-already {
		t.Errorf("resume executed %d jobs, want %d", got, len(jobs)-already)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed journal differs from uninterrupted journal:\n%s\n--- vs ---\n%s", got, want)
	}
	// No duplicate indices.
	seen := make(map[int]bool)
	for _, rec := range rep2.Records {
		if seen[rec.Index] {
			t.Fatalf("duplicate record for index %d", rec.Index)
		}
		seen[rec.Index] = true
	}
}

// TestCancelledJobNotJournaled pins what cancellation leaves behind: a job
// that returns because the campaign was cancelled under it is not
// journaled as a failure, so the journal stays a prefix and a resume runs
// the job again.
func TestCancelledJobNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	jobs := []Job{
		{ID: "a", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{ID: "b", Run: func(context.Context) (any, error) {
			<-started
			cancel()
			return 1, nil
		}},
	}
	if _, err := New(Options{Workers: 2, Journal: j}).Run(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck // read-only after Run
	if recs := j2.Records(); len(recs) != 0 {
		t.Fatalf("journal after cancellation holds %+v, want nothing", recs)
	}
	jobs[0].Run = func(context.Context) (any, error) { return 0, nil }
	jobs[1].Run = func(context.Context) (any, error) { return 1, nil }
	rep, err := New(Options{Workers: 2, Journal: j2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Skipped != 0 || len(rep.Records) != 2 || rep.Records[0].Status != StatusOK {
		t.Fatalf("resume = %+v, want both jobs run", rep)
	}
}

// TestResumeTornTail simulates a kill mid-append: a journal whose last
// line is torn must load as the prefix before it and resume cleanly.
func TestResumeTornTail(t *testing.T) {
	c := testCampaign()
	want := runToJournal(t, c, 1)

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, Journal: j}).Run(context.Background(), jobs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck // read-only after Run
	if got := len(j2.Records()); got != 2 {
		t.Fatalf("torn journal loaded %d records, want 2", got)
	}
	if _, err := New(Options{Workers: 4, Journal: j2}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("journal after torn-tail resume differs from clean run")
	}
}

// TestJournalMismatchRejected: resuming a different campaign against an
// existing journal must fail loudly, not silently skip wrong jobs.
func TestJournalMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{ID: "a", Run: func(context.Context) (any, error) { return 1, nil }}}
	if _, err := New(Options{Workers: 1, Journal: j}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck // read-only after Run
	other := []Job{{ID: "b", Run: func(context.Context) (any, error) { return 1, nil }}}
	if _, err := New(Options{Workers: 1, Journal: j2}).Run(context.Background(), other); err == nil {
		t.Fatal("mismatched journal accepted")
	}
}

// TestPanicIsolation: a panicking job fails that job only; every other job
// still runs and the campaign completes.
func TestPanicIsolation(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("job%d", i), Run: func(context.Context) (any, error) {
			if i == 3 {
				panic("boom")
			}
			return i, nil
		}}
	}
	rep, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Completed != 7 {
		t.Fatalf("completed=%d failed=%d, want 7/1", rep.Completed, rep.Failed)
	}
	rec := rep.Records[3]
	if rec.Status != StatusFail || rec.Error != "panic: boom" {
		t.Fatalf("panic record = %+v", rec)
	}
	if ids := rep.FailedIDs(); len(ids) != 1 || ids[0] != "job3" {
		t.Fatalf("FailedIDs = %v", ids)
	}
}

// TestFailingJobDoesNotStopCampaign: infeasible grid points (here D >= n)
// fail their own job and the rest proceed.
func TestFailingJobDoesNotStopCampaign(t *testing.T) {
	c := &Campaign{
		N:        []int{4, 9},
		D:        []int{8}, // infeasible for n=4, fine as a bound for n=9
		Workload: "analysis",
		Seed:     7,
	}
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Options{Workers: 2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("expected at least one infeasible job to fail")
	}
	if rep.Completed == 0 {
		t.Fatal("expected feasible jobs to complete despite failures")
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := testCampaign()
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Total != int64(len(jobs)) || s.Done != int64(len(jobs)) || s.InFlight != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Line() == "" {
		t.Fatal("empty progress line")
	}
}

// TestInjectedClock pins the clock seam: every timing figure in Report
// and Snapshot flows through Engine.now, so a fake clock that advances
// one second per reading makes progress timing exactly predictable.
func TestInjectedClock(t *testing.T) {
	jobs := []Job{{ID: "one", Run: func(context.Context) (any, error) { return 1, nil }}}
	e := New(Options{Workers: 1})
	base := time.Unix(1_700_000_000, 0)
	var ticks int64
	e.now = func() time.Time {
		return base.Add(time.Duration(atomic.AddInt64(&ticks, 1)) * time.Second)
	}
	rep, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Run reads the clock twice: once at start, once for Report.Elapsed.
	if rep.Elapsed != time.Second {
		t.Fatalf("Elapsed = %v, want 1s", rep.Elapsed)
	}
	// Stats takes the third reading, two fake seconds after start.
	s := e.Stats()
	if s.ElapsedSeconds != 2 {
		t.Fatalf("ElapsedSeconds = %v, want 2", s.ElapsedSeconds)
	}
	if s.JobsPerSec != 0.5 {
		t.Fatalf("JobsPerSec = %v, want 0.5 (1 job / 2s)", s.JobsPerSec)
	}
}
