// Command ttdcgen constructs topology-transparent schedules and writes them
// as JSON (for piping into ttdcanalyze/ttdcsim) or human-readable text.
//
// Usage:
//
//	ttdcgen -n 25 -D 2 -base polynomial                  # non-sleeping schedule
//	ttdcgen -n 25 -D 2 -base steiner -alphaT 3 -alphaR 5 # duty-cycled
//	ttdcgen -n 25 -D 2 -base tdma -format text
//
// With -alphaT/-alphaR set, the paper's Construct algorithm converts the
// base schedule into an (αT, αR)-schedule; otherwise the base non-sleeping
// schedule is emitted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ttdc "repro"
	"repro/internal/schedcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 25, "maximum number of nodes in the class N(n, D)")
		d        = fs.Int("D", 2, "maximum node degree in the class N(n, D)")
		base     = fs.String("base", "polynomial", "base construction: "+strings.Join(append(schedcache.BaseNames(), "search"), " | "))
		frameLen = fs.Int("L", 0, "frame length for -base search (0 = n)")
		seed     = fs.Uint64("seed", 1, "seed for -base search")
		alphaT   = fs.Int("alphaT", 0, "max transmitters per slot (0 = keep non-sleeping)")
		alphaR   = fs.Int("alphaR", 0, "max receivers per slot (0 = keep non-sleeping)")
		balanced = fs.Bool("balanced", false, "use the balanced-energy division (§7)")
		format   = fs.String("format", "json", "output format: json | text | grid")
		verify   = fs.Bool("verify", false, "exhaustively verify topology transparency before emitting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ns, err := buildBase(*base, *n, *d, *frameLen, *seed)
	if err != nil {
		return err
	}
	s := ns
	if *alphaT > 0 || *alphaR > 0 {
		if *alphaT <= 0 || *alphaR <= 0 {
			return fmt.Errorf("set both -alphaT and -alphaR (got %d, %d)", *alphaT, *alphaR)
		}
		opts := ttdc.ConstructOptions{AlphaT: *alphaT, AlphaR: *alphaR, D: *d}
		if *balanced {
			opts.Strategy = ttdc.Balanced
		}
		if s, err = ttdc.Construct(ns, opts); err != nil {
			return err
		}
	}
	if *verify {
		if w := ttdc.CheckRequirement3(s, *d); w != nil {
			return fmt.Errorf("schedule failed verification: %v", w)
		}
		fmt.Fprintf(stderr, "verified: topology-transparent for N(%d, %d)\n", *n, *d)
	}
	switch *format {
	case "json":
		return ttdc.EncodeSchedule(stdout, s)
	case "text":
		fmt.Fprintln(stdout, s.String())
		fmt.Fprintf(stdout, "frame length %d, active fraction %.3f\n", s.L(), s.ActiveFraction())
	case "grid":
		fmt.Fprint(stdout, s.Grid(80))
		fmt.Fprintf(stdout, "frame length %d, active fraction %.3f\n", s.L(), s.ActiveFraction())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func buildBase(base string, n, d, frameLen int, seed uint64) (*ttdc.Schedule, error) {
	if base != "search" {
		return schedcache.BuildBase(base, n, d)
	}
	if frameLen == 0 {
		frameLen = n
	}
	return ttdc.SearchSchedule(n, d, frameLen, seed)
}
