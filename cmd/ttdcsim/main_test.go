package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/topology"
)

func TestRunInProcessModes(t *testing.T) {
	for _, mode := range []string{"saturation", "convergecast", "flood"} {
		t.Run(mode, func(t *testing.T) {
			for _, gen := range []string{"polynomial", "projective"} {
				var out, errOut bytes.Buffer
				err := run([]string{"-gen", gen, "-n", "9", "-D", "2", "-mode", mode, "-frames", "2"},
					strings.NewReader(""), &out, &errOut)
				if err != nil {
					t.Fatalf("%s: %v", gen, err)
				}
				if !strings.Contains(out.String(), "schedule: n=9") {
					t.Errorf("%s: missing schedule banner:\n%s", gen, out.String())
				}
				if !strings.Contains(out.String(), "active fraction") {
					t.Errorf("%s: missing report body:\n%s", gen, out.String())
				}
			}
		})
	}
}

// TestUsageListsTheTables: the -gen and -topo help lists exactly the
// bases and topology models the tables build.
func TestUsageListsTheTables(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-h"}, strings.NewReader(""), &out, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	for _, tc := range []struct {
		flag, prefix string
		want         []string
	}{
		{"-gen", "build schedule in-process: ", schedcache.BaseNames()},
		{"-topo", "topology: ", topology.ModelNames()},
	} {
		if got := usageNames(errOut.String(), tc.flag, tc.prefix); !slices.Equal(got, tc.want) {
			t.Errorf("%s help lists %q, want %q", tc.flag, got, tc.want)
		}
	}
}

// usageNames returns the " | "-separated names the help text of flag
// lists after prefix, up to its default.
func usageNames(help, flag, prefix string) []string {
	_, text, ok := strings.Cut(help, "  "+flag+" string\n")
	if !ok {
		return nil
	}
	text, _, _ = strings.Cut(text, "\n")
	text, _, _ = strings.Cut(strings.TrimSpace(text), " (default")
	return strings.Split(strings.TrimPrefix(text, prefix), " | ")
}

func TestRunSchedulePipedFromStdin(t *testing.T) {
	s, err := ttdc.TDMA(6)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := ttdc.EncodeSchedule(&wire, s); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-topo", "ring", "-D", "2", "-frames", "2"}, &wire, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "topology: ring") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-gen", "quantum"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := run([]string{"-gen", "tdma", "-n", "6", "-mode", "osmosis"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-gen", "tdma", "-n", "6", "-topo", "klein-bottle"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-gen", "steiner", "-n", "12", "-D", "3"}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("steiner at D = 3 accepted; it is not topology-transparent there")
	}
	const odd = "topology: no 3-regular graph on 9 nodes (nd odd)"
	if err := run([]string{"-gen", "tdma", "-n", "9", "-D", "3", "-topo", "regular"}, strings.NewReader(""), &out, &errOut); err == nil || err.Error() != odd {
		t.Errorf("regular topology on N(9, 3): error %v, want %q", err, odd)
	}
	if err := run(nil, strings.NewReader("not json"), &out, &errOut); err == nil {
		t.Error("garbage stdin accepted")
	}
}

// TestRunOutputDigests pins what ttdcsim prints, byte for byte: the
// SHA-256 over every run's arguments, stdout, stderr and exit status, as
// main would report them. The runs cross three in-process bases with
// every topology and every mode, plus one run under loss and clock
// drift. Update the digest only for a change meant to alter the output,
// and say so where it is recorded.
func TestRunOutputDigests(t *testing.T) {
	var runs [][]string
	for _, gen := range []string{"tdma", "polynomial", "steiner"} {
		for _, topo := range []string{"regular", "ring", "grid", "geometric", "random"} {
			for _, mode := range []string{"saturation", "convergecast", "flood"} {
				runs = append(runs, []string{"-gen", gen, "-n", "9", "-D", "2", "-topo", topo, "-mode", mode,
					"-frames", "3", "-rate", "0.05", "-radius", "0.5", "-seed", "7"})
			}
		}
	}
	runs = append(runs, []string{"-gen", "polynomial", "-n", "9", "-D", "2", "-alphaT", "2", "-alphaR", "4",
		"-topo", "geometric", "-radius", "0.5", "-mode", "convergecast", "-frames", "6", "-rate", "0.05",
		"-loss", "0.1", "-capture", "0.2", "-drift", "40", "-resync", "500", "-seed", "3"})
	h := sha256.New()
	for _, args := range runs {
		var out, errb bytes.Buffer
		status := 0
		if err := run(args, strings.NewReader(""), &out, &errb); err != nil {
			fmt.Fprintln(&errb, "ttdcsim:", err)
			status = 1
		}
		fmt.Fprintf(h, "%q\n%d\n", args, status)
		h.Write(out.Bytes())
		h.Write(errb.Bytes())
	}
	const want = "d6a8ba02cb7ec9b9da4f21047e385834f3f77e8bb63ec2e0c160604396a9b3fd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("output SHA-256 over %d runs = %s, want %s", len(runs), got, want)
	}
}
