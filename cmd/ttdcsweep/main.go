// Command ttdcsweep regenerates the reproduction experiments (E1-E17): each
// verifies one paper artifact — Figure 1, the Theorem 2-4 and 7-9
// guarantees, the Requirement 2 ⇔ 3 equivalence — or one of the simulation
// studies the paper motivates, and prints its table.
//
// Every requested experiment runs even when an earlier one fails; a final
// summary lists the failing IDs and the exit status is non-zero only then.
// The suite runs through the internal/engine worker pool and prints the
// tables in experiment order once it finishes, byte-identical at every
// worker count; -journal checkpoints finished experiments so an
// interrupted sweep resumes where it left off.
//
// Usage:
//
//	ttdcsweep                         # run everything
//	ttdcsweep -exp E10                # one experiment
//	ttdcsweep -exp E3 -csv            # CSV output
//	ttdcsweep -workers 1              # the suite on one engine worker
//	ttdcsweep -journal s.jsonl        # checkpoint/resume
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (E1..E17); empty = all")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		workers = fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
		journal = fs.String("journal", "", "JSONL journal path: checkpoint finished experiments, resume on rerun")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}

	failed, err := runEngine(ids, *csv, *workers, *journal, stdout, stderr)
	if err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d/%d experiments failed: %s", len(failed), len(ids), strings.Join(failed, ", "))
	}
	fmt.Fprintf(stdout, "ttdcsweep: %d/%d PASS\n", len(ids), len(ids))
	return nil
}

// runEngine runs the experiments through the batch engine and prints the
// rendered blocks in experiment order afterwards, so the output does not
// depend on the worker count or on which blocks a journal replayed.
func runEngine(ids []string, csv bool, workers int, journalPath string, stdout, stderr io.Writer) (failed []string, err error) {
	opts := engine.Options{Workers: workers}
	if journalPath != "" {
		j, jerr := engine.OpenJournal(journalPath)
		if jerr != nil {
			return nil, jerr
		}
		defer j.Close() //nolint:errcheck // flushed on every Append
		opts.Journal = j
	}
	rep, err := engine.New(opts).Run(context.Background(), engine.ExperimentJobs(ids, csv, 1))
	if err != nil {
		return nil, err
	}
	for _, rec := range rep.Records {
		id := ids[rec.Index] // rec.ID carries a format suffix in CSV mode
		if rec.Status != engine.StatusOK {
			fmt.Fprintf(stderr, "ttdcsweep: %s: %s\n", id, rec.Error)
			failed = append(failed, id)
			continue
		}
		var sr engine.SweepResult
		if err := json.Unmarshal(rec.Result, &sr); err != nil {
			return nil, fmt.Errorf("%s: corrupt journal record: %w", id, err)
		}
		fmt.Fprint(stdout, sr.Output)
		if !sr.Pass {
			failed = append(failed, id)
		}
	}
	return failed, nil
}
