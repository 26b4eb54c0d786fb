package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	ttdc "repro"
)

func TestRunSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "9", "-D", "2"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RECOMMENDED:", "frame length", "Thr^ave", "Thr^min"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunEmitPipesIntoDecode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "9", "-D", "2", "-emit"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s, err := ttdc.DecodeSchedule(&out)
	if err != nil {
		t.Fatalf("emitted schedule does not decode: %v", err)
	}
	if s.N() < 9 {
		t.Errorf("emitted schedule covers n=%d, want >= 9", s.N())
	}
}

func TestRunInfeasibleRequirements(t *testing.T) {
	var out, errOut bytes.Buffer
	// A lifetime floor no configuration can reach must error, not succeed.
	if err := run([]string{"-n", "9", "-D", "2", "-min-lifetime", "1000000"}, &out, &errOut); err == nil {
		t.Fatal("impossible lifetime floor produced a recommendation")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunOutputDigests pins what ttdcplan prints, byte for byte: the
// SHA-256 over every run's arguments, stdout, stderr and exit status, as
// main would report them. The runs cover a class every base serves, a
// class past the exact-scan limit, and latency caps under which a
// non-sleeping Steiner, polynomial or projective base wins, two of them
// emitted as JSON. Update the digest only for a change meant to alter
// the output, and say so where it is recorded.
func TestRunOutputDigests(t *testing.T) {
	runs := [][]string{
		{"-n", "25", "-D", "2"},
		{"-n", "13", "-D", "2", "-max-hop-latency", "2"},
		{"-n", "121", "-D", "3"},
		{"-n", "9", "-D", "2", "-balanced", "-emit"},
		{"-n", "25", "-D", "2", "-max-hop-latency", "0.3", "-emit"},
		{"-n", "16", "-D", "3", "-max-hop-latency", "0.3", "-emit"},
		{"-n", "13", "-D", "3", "-max-hop-latency", "0.14"},
	}
	h := sha256.New()
	for _, args := range runs {
		var out, errb bytes.Buffer
		status := 0
		if err := run(args, &out, &errb); err != nil {
			fmt.Fprintln(&errb, "ttdcplan:", err)
			status = 1
		}
		fmt.Fprintf(h, "%q\n%d\n", args, status)
		h.Write(out.Bytes())
		h.Write(errb.Bytes())
	}
	const want = "d446bb382bbfd0df669af712bfca5c38447b5577bdba2a083f27f5add2e713bf"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("output SHA-256 over %d runs = %s, want %s", len(runs), got, want)
	}
}
