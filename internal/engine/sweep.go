package engine

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// SweepResult is the payload of one experiment job: whether the paper
// claim held, plus the fully rendered table block. Rendering happens
// inside the job, so a resumed sweep replays its journaled blocks byte
// for byte.
type SweepResult struct {
	Pass   bool   `json:"pass"`
	Output string `json:"output"`
}

// renderExperiment renders one experiment result exactly as cmd/ttdcsweep
// prints it: header, table (text or CSV), notes, status line, blank line.
func renderExperiment(res *experiments.Result, csv bool) (string, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", res.ID, res.Title)
	var err error
	if csv {
		err = res.Table.WriteCSV(&buf)
	} else {
		err = res.Table.WriteText(&buf)
	}
	if err != nil {
		return "", err
	}
	for _, n := range res.Notes {
		fmt.Fprintln(&buf, n)
	}
	status := "PASS"
	if !res.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&buf, "[%s] %s\n\n", status, res.ID)
	return buf.String(), nil
}

// ExperimentJobs wraps the E1..E17 reproduction suite as engine jobs, one
// per experiment ID. The experiments are internally seeded (their tables
// are pinned to the paper), so the per-job seed only labels the journal.
// A CSV job's ID carries a "/csv" suffix: its journaled block is CSV, so
// resuming a text sweep's journal in CSV mode (or the reverse) fails the
// engine's wrong-journal check instead of replaying the other format.
func ExperimentJobs(ids []string, csv bool, seed uint64) []Job {
	jobs := make([]Job, len(ids))
	for i, id := range ids {
		id := id
		jobID := id
		if csv {
			jobID += "/csv"
		}
		jobs[i] = Job{
			ID:   jobID,
			Seed: stats.DeriveSeed(seed, uint64(i)),
			Run: func(ctx context.Context) (any, error) {
				res, err := experiments.Run(id)
				if err != nil {
					return nil, err
				}
				out, err := renderExperiment(res, csv)
				if err != nil {
					return nil, err
				}
				return &SweepResult{Pass: res.Pass, Output: out}, nil
			},
		}
	}
	return jobs
}
