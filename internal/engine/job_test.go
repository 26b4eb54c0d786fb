package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/stats"
)

// TestJobsJournalMatchesExecuteJob pins the campaign path to the one-shot
// path: every record of a Jobs+Run journal, at one worker and at four,
// must be exactly the record a lone ExecuteJob call produces for that
// spec and seed — the marshalled metrics, or the error text. The grid
// crosses every workload with every topology, and its failing points
// cover a grid rounded up past the schedule (n = 10 builds a 4×4 grid),
// geometric nodes that cannot reach the sink, and a sink out of range.
func TestJobsJournalMatchesExecuteJob(t *testing.T) {
	var campaigns []*Campaign
	for _, workload := range []string{"analysis", "saturation", "convergecast", "flood"} {
		for _, topo := range []string{"regular", "ring", "grid", "geometric", "random"} {
			campaigns = append(campaigns,
				&Campaign{
					Name: "parity", N: []int{9, 10, 16}, D: []int{2},
					Duty:     []DutyPoint{{}, {AlphaT: 2, AlphaR: 4}},
					Topology: topo, Workload: workload,
					Frames: 2, Rate: 0.2, Sink: 1, Replications: 2, Seed: 5,
				},
				&Campaign{
					Name: "sink", N: []int{9, 16}, D: []int{2},
					Topology: topo, Workload: workload,
					Frames: 2, Rate: 0.2, Sink: 12, Replications: 2, Seed: 6,
				})
		}
	}
	var errs []string
	for _, c := range campaigns {
		want, failures := executeJobJournal(t, c)
		errs = append(errs, failures...)
		for _, workers := range []int{1, 4} {
			got := runToJournal(t, c, workers)
			if bytes.Equal(got, want) {
				continue
			}
			gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range wantLines {
				if i >= len(gotLines) || gotLines[i] != wantLines[i] {
					t.Fatalf("%s/%s/%s workers=%d: record %d differs:\n got  %s\n want %s",
						c.Name, c.Topology, c.Workload, workers, i, lineAt(gotLines, i), wantLines[i])
				}
			}
			t.Fatalf("%s/%s/%s workers=%d: journal has extra records", c.Name, c.Topology, c.Workload, workers)
		}
	}
	all := strings.Join(errs, "\n")
	for _, failure := range []string{
		"graph has 16 nodes but schedule supports 10",
		"cannot reach the sink",
		"sink 12 out of range",
	} {
		if !strings.Contains(all, failure) {
			t.Errorf("no job failed with %q; the grid lost a failing point", failure)
		}
	}
}

// TestOutOfClassJobsFailWithoutCache runs analysis jobs whose D is at
// least n, for each base construction, through the paths that have no
// schedule cache — ExecuteJob and Jobs(c, nil) with Run — and through a
// trusted cache. Every path must fail each job with the cache's validation
// error, never record a panic from inside the build.
func TestOutOfClassJobsFailWithoutCache(t *testing.T) {
	const want = "schedcache: D = 20 outside [1, 8]"
	for _, construction := range []string{"tdma", "steiner", "polynomial"} {
		c := &Campaign{Name: "outside", Construction: construction, N: []int{9}, D: []int{20}, Workload: "analysis", Seed: 3}
		specs, err := c.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, cache := range []*schedcache.Cache[*ttdc.Schedule]{nil, schedcache.NewTrusted(4)} {
			if _, err := ExecuteJob(context.Background(), specs[0], 1, cache); err == nil || err.Error() != want {
				t.Errorf("%s: ExecuteJob (cache %v) error = %v, want %q", construction, cache != nil, err, want)
			}
		}
		jobs, err := Jobs(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := New(Options{Workers: 2}).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			if rec.Status != StatusFail || rec.Error != want {
				t.Errorf("%s: record %s = %s %q, want a failure with %q", construction, rec.ID, rec.Status, rec.Error, want)
			}
			if strings.HasPrefix(rec.Error, "panic:") {
				t.Errorf("%s: record %s journaled a panic", construction, rec.ID)
			}
		}
	}
}

// executeJobJournal builds the journal the campaign must produce from lone
// ExecuteJob calls, and returns it with the error texts it holds.
func executeJobJournal(t *testing.T, c *Campaign) ([]byte, []string) {
	t.Helper()
	specs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var errs []string
	for i, spec := range specs {
		seed := stats.DeriveSeed(c.Seed, uint64(i))
		rec := Record{Index: i, ID: spec.ID(), Seed: seed, Status: StatusOK}
		m, err := ExecuteJob(context.Background(), spec, seed, nil)
		if err != nil {
			rec.Status, rec.Error = StatusFail, err.Error()
			errs = append(errs, rec.Error)
		} else if rec.Result, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes(), errs
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(missing)"
}

// TestMemoSharesOneBuild: concurrent gets of one key run the build once
// and share its result, error included; a nil memo builds every time.
func TestMemoSharesOneBuild(t *testing.T) {
	mm := newMemo[int, *int]()
	builds := 0
	build := func() (*int, error) {
		builds++
		v := builds
		return &v, fmt.Errorf("build %d", v)
	}
	done := make(chan *int)
	for i := 0; i < 8; i++ {
		go func() {
			v, err := mm.get(7, build)
			if err == nil || err.Error() != "build 1" {
				t.Errorf("err = %v, want the first build's error", err)
			}
			done <- v
		}()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if v := <-done; v != first {
			t.Fatal("concurrent gets of one key returned different values")
		}
	}
	if builds != 1 {
		t.Fatalf("%d builds for one key, want 1", builds)
	}
	var none *memo[int, *int]
	a, _ := none.get(7, build)
	b, _ := none.get(7, build)
	if a == b || builds != 3 {
		t.Fatalf("nil memo shared a build (builds = %d)", builds)
	}
}
