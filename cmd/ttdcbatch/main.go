// Command ttdcbatch runs a simulation/analysis campaign — a declarative
// JSON grid over (construction, n, D, αT, αR, topology, workload,
// replications, seed) — through the deterministic parallel batch engine
// and prints the per-job results.
//
// Results are identical whatever -workers is; -journal checkpoints
// finished jobs so a killed campaign resumes exactly where it stopped.
//
// Usage:
//
//	ttdcbatch -campaign sweep.json
//	ttdcbatch -campaign sweep.json -workers 8 -journal sweep.jsonl -progress
//	ttdcbatch -campaign sweep.json -format csv > results.csv
//	echo '{"n":[9,16,25],"d":[2],"workload":"analysis"}' | ttdcbatch
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/tablewriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcbatch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcbatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		campaign = fs.String("campaign", "", `campaign JSON file ("-" or empty = stdin)`)
		workers  = fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
		journal  = fs.String("journal", "", "JSONL journal path: checkpoint finished jobs, resume on rerun")
		format   = fs.String("format", "table", "output format: table | csv | jsonl")
		progress = fs.Bool("progress", false, "print a live progress line to stderr")
		shards   = fs.Int("shards", 0, "intra-run shards per job kernel: overrides the campaign doc; -1 = one per CPU (results identical at every value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "table", "csv", "jsonl":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, or jsonl)", *format)
	}

	var in io.Reader = os.Stdin
	if *campaign != "" && *campaign != "-" {
		f, err := os.Open(*campaign)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // read-only
		in = f
	}
	c, err := engine.DecodeCampaign(in)
	if err != nil {
		return err
	}
	if *shards != 0 {
		c.Shards = *shards
	}
	// Campaign documents here come from the operator, not the network, so
	// the jobs take TrustedLimits (nil) — million-node single-job
	// campaigns are a supported workload, not an attack.
	jobs, err := engine.Jobs(c, nil)
	if err != nil {
		return err
	}
	// A campaign that expands to a single job gets no job-level
	// parallelism; move the workers inside the job instead. Sharding
	// cannot change results, so this is purely a scheduling decision.
	if c.Shards == 0 && len(jobs) == 1 && effectiveWorkers(*workers) > 1 {
		c.Shards = -1
		if jobs, err = engine.Jobs(c, nil); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "ttdcbatch: single-job campaign, sharding the run across CPUs (-shards -1)")
	}

	opts := engine.Options{Workers: *workers}
	if *journal != "" {
		j, err := engine.OpenJournal(*journal)
		if err != nil {
			return err
		}
		defer j.Close() //nolint:errcheck // flushed on every Append
		opts.Journal = j
	}
	eng := engine.New(opts)

	if *progress {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					fmt.Fprintf(stderr, "\r%s\n", eng.Stats().Line())
					return
				case <-tick.C:
					fmt.Fprintf(stderr, "\r%s", eng.Stats().Line())
				}
			}
		}()
	}

	rep, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return err
	}
	if err := emit(stdout, c, rep, *format); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ttdcbatch: %d jobs: %d ok, %d failed, %d resumed in %s\n",
		len(rep.Records), len(rep.Records)-len(rep.FailedIDs()), len(rep.FailedIDs()), rep.Skipped,
		rep.Elapsed.Round(time.Millisecond))
	return nil
}

// effectiveWorkers mirrors engine.New's worker-count resolution.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// emit renders the report. jsonl reprints the journal records verbatim;
// table and csv summarize each job in fixed columns with one
// workload-dependent metric column.
func emit(w io.Writer, c *engine.Campaign, rep *engine.Report, format string) error {
	if format == "jsonl" {
		enc := json.NewEncoder(w)
		for _, rec := range rep.Records {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}
	title := "campaign"
	if c.Name != "" {
		title = "campaign " + c.Name
	}
	tbl := tablewriter.New(title, "job", "status", "seed", "L", "active", "metric", "error")
	for _, rec := range rep.Records {
		var l, active, metric any = "-", "-", "-"
		if rec.Status == engine.StatusOK {
			var m engine.Metrics
			if err := json.Unmarshal(rec.Result, &m); err != nil {
				return fmt.Errorf("%s: corrupt record: %w", rec.ID, err)
			}
			l = m.L
			active = fmt.Sprintf("%.3f", m.ActiveFraction)
			metric = metricColumn(&m)
		}
		tbl.AddRow(rec.ID, rec.Status, rec.Seed, l, active, metric, rec.Error)
	}
	if format == "csv" {
		return tbl.WriteCSV(w)
	}
	return tbl.WriteText(w)
}

// metricColumn picks the headline number(s) for the workload that actually
// ran, inferred from which fields the metrics carry.
func metricColumn(m *engine.Metrics) string {
	switch {
	case m.AvgThroughput != "":
		return fmt.Sprintf("thrAve=%.6f", m.AvgThroughputFloat)
	case m.Covered > 0:
		return fmt.Sprintf("covered=%d completion=%d", m.Covered, m.CompletionSlot)
	case m.Generated > 0 || m.Delivered > 0:
		return fmt.Sprintf("delivered=%d/%d ratio=%.3f", m.Delivered, m.Generated, m.DeliveryRatio)
	default:
		return fmt.Sprintf("minLinkThr=%.4f avgLinkThr=%.4f", m.MinLinkThroughput, m.AvgLinkThroughput)
	}
}
