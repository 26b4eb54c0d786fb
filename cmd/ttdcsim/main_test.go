package main

import (
	"bytes"
	"strings"
	"testing"

	ttdc "repro"
)

func TestRunInProcessModes(t *testing.T) {
	for _, mode := range []string{"saturation", "convergecast", "flood"} {
		t.Run(mode, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run([]string{"-gen", "polynomial", "-n", "9", "-D", "2", "-mode", mode, "-frames", "2"},
				strings.NewReader(""), &out, &errOut)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "schedule: n=9") {
				t.Errorf("missing schedule banner:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "active fraction") {
				t.Errorf("missing report body:\n%s", out.String())
			}
		})
	}
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
	if err := run(nil, strings.NewReader("not json"), &out, &errOut); err == nil {
		t.Error("garbage stdin accepted")
	}
}
