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
)

func TestRunEmitsDecodableJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-n", "25", "-D", "2", "-alphaT", "3", "-alphaR", "5", "-verify"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(errb.String(), "verified: topology-transparent for N(25, 2)") {
		t.Fatalf("missing verification note on stderr: %q", errb.String())
	}
	s, err := ttdc.DecodeSchedule(&out)
	if err != nil {
		t.Fatalf("output does not decode: %v", err)
	}
	if s.N() != 25 || !s.IsAlphaSchedule(3, 5) {
		t.Fatalf("decoded schedule n=%d caps ok=%v", s.N(), s.IsAlphaSchedule(3, 5))
	}
}

func TestRunBases(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "9", "-D", "2", "-base", "tdma"},
		{"-n", "9", "-D", "2", "-base", "steiner"},
		{"-n", "9", "-D", "2", "-base", "projective"},
		{"-n", "9", "-D", "2", "-base", "search", "-L", "12"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Errorf("run(%v): %v", args, err)
			continue
		}
		if _, err := ttdc.DecodeSchedule(&out); err != nil {
			t.Errorf("run(%v) output does not decode: %v", args, err)
		}
	}
}

func TestRunTextAndGridFormats(t *testing.T) {
	for _, format := range []string{"text", "grid"} {
		var out, errb bytes.Buffer
		if err := run([]string{"-n", "9", "-D", "2", "-format", format}, &out, &errb); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if !strings.Contains(out.String(), "frame length 9, active fraction 1.000") {
			t.Fatalf("format %s output missing summary line:\n%s", format, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-base", "nope"},
		{"-format", "nope"},
		{"-n", "9", "-D", "3", "-base", "steiner"}, // steiner needs D = 2
		{"-alphaT", "3"},                           // αR missing
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunOutputDigests pins what ttdcgen prints, byte for byte: the
// SHA-256 over every run's arguments, stdout, stderr and exit status, as
// main would report them. The runs cross every base at D = 2 and D = 3
// (Steiner at D = 2 only), text and JSON, non-sleeping and duty-cycled,
// plus one search. Update the digest only for a change meant to alter
// the output, and say so where it is recorded.
func TestRunOutputDigests(t *testing.T) {
	var runs [][]string
	for _, base := range []string{"tdma", "polynomial", "steiner", "projective"} {
		for _, d := range []string{"2", "3"} {
			if base == "steiner" && d != "2" {
				continue
			}
			for _, format := range []string{"text", "json"} {
				for _, caps := range [][]string{nil, {"-alphaT", "3", "-alphaR", "5"}} {
					args := []string{"-n", "25", "-D", d, "-base", base, "-format", format}
					runs = append(runs, append(args, caps...))
				}
			}
		}
	}
	runs = append(runs, []string{"-n", "9", "-D", "2", "-base", "search", "-L", "12", "-format", "text"})
	h := sha256.New()
	for _, args := range runs {
		var out, errb bytes.Buffer
		status := 0
		if err := run(args, &out, &errb); err != nil {
			fmt.Fprintln(&errb, "ttdcgen:", err)
			status = 1
		}
		fmt.Fprintf(h, "%q\n%d\n", args, status)
		h.Write(out.Bytes())
		h.Write(errb.Bytes())
	}
	const want = "8bb07dfe2273c870264cf06e350c618d1d6c7d0c25558f063129de600b422810"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("output SHA-256 over %d runs = %s, want %s", len(runs), got, want)
	}
}

// TestUsageListsTheTable: the -base help lists exactly the bases the
// table builds, then search.
func TestUsageListsTheTable(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, &out, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	_, text, _ := strings.Cut(errb.String(), "  -base string\n")
	text, _, _ = strings.Cut(text, "\n")
	text, _, _ = strings.Cut(strings.TrimSpace(text), " (default")
	got := strings.Split(strings.TrimPrefix(text, "base construction: "), " | ")
	if want := append(schedcache.BaseNames(), "search"); !slices.Equal(got, want) {
		t.Errorf("-base help lists %q, want %q", got, want)
	}
}
