package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Digests of the full sweep output, text and -csv, recorded when the
// suite still printed from a serial loop beside its engine path: the
// engine-only sweep must print those same bytes.
const (
	textDigest = "42513b8c2e013d0375b33e7861e05ee7cfacdeb39de8295a7d5c7ac243bb98f1"
	csvDigest  = "39e3698f3773b21caccd1055255b319da371a7c389c00fd8c511f3e86ddba36e"
)

func sweep(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestSweepWorkersIdentical is the sweep's determinism acceptance check:
// the printed tables must not depend on the engine's worker count.
func TestSweepWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite comparison")
	}
	one := sweep(t, "-workers", "1")
	eight := sweep(t, "-workers", "8")
	if one != eight {
		t.Error("sweep output at -workers 8 differs from -workers 1")
	}
	if !strings.Contains(one, "ttdcsweep: 17/17 PASS") {
		t.Errorf("missing summary line; got tail %q", tail(one))
	}
}

// TestSweepOutputDigests pins the full text and CSV output byte for byte.
func TestSweepOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite comparison")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, textDigest},
		{[]string{"-csv"}, csvDigest},
	} {
		sum := sha256.Sum256([]byte(sweep(t, tc.args...)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("ttdcsweep %v output sha256 = %s, want %s", tc.args, got, tc.want)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E5"}, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E5:") || !strings.Contains(out.String(), "[PASS] E5") {
		t.Errorf("unexpected output %q", tail(out.String()))
	}
	if !strings.Contains(out.String(), "ttdcsweep: 1/1 PASS") {
		t.Errorf("missing summary; got tail %q", tail(out.String()))
	}
}

// TestUnknownExperimentContinuesToSummary: an erroring experiment must not
// abort the run pre-summary; it must surface in the final error.
func TestUnknownExperimentContinuesToSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-exp", "E99"}, &out, &errOut)
	if err == nil {
		t.Fatal("unknown experiment reported success")
	}
	if !strings.Contains(err.Error(), "1/1 experiments failed") || !strings.Contains(err.Error(), "E99") {
		t.Errorf("summary error = %v", err)
	}
}

// TestJournalResume runs two experiments with a journal, then reruns: the
// second run must replay from the journal (same output) without
// re-executing.
func TestJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	var first, second bytes.Buffer
	if err := run([]string{"-exp", "E5", "-journal", journal}, &first, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "E5", "-journal", journal}, &second, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("journal replay output differs from original run")
	}
}

// TestJournalResumeOtherFormat: a journal holds rendered blocks, so
// resuming it in the other output format must fail loudly rather than
// replay the blocks in the format they were written in. A CSV journal
// still resumes in CSV mode.
func TestJournalResumeOtherFormat(t *testing.T) {
	for _, tc := range []struct{ first, second []string }{
		{nil, []string{"-csv"}},
		{[]string{"-csv"}, nil},
	} {
		journal := filepath.Join(t.TempDir(), "sweep.jsonl")
		args := func(extra []string) []string {
			return append([]string{"-exp", "E5", "-journal", journal}, extra...)
		}
		first := sweep(t, args(tc.first)...)
		var out bytes.Buffer
		err := run(args(tc.second), &out, os.Stderr)
		if err == nil || !strings.Contains(err.Error(), "wrong journal") {
			t.Errorf("resume %v after %v: err = %v, output %q; want a wrong-journal error", tc.second, tc.first, err, tail(out.String()))
		}
		if again := sweep(t, args(tc.first)...); again != first {
			t.Errorf("resume %v in its own format differs from the original run", tc.first)
		}
	}
}

func tail(s string) string {
	if len(s) > 200 {
		return s[len(s)-200:]
	}
	return s
}
