package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/lint"
)

func TestGeneratedModuleFollowsSeed(t *testing.T) {
	a, err := generateModule(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateModule(1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFiles(a.files, b.files) || !reflect.DeepEqual(a.predict, b.predict) {
		t.Error("seed 1 generated two different modules")
	}
	c, err := generateModule(2)
	if err != nil {
		t.Fatal(err)
	}
	if sameFiles(a.files, c.files) {
		t.Error("seeds 1 and 2 generated the same module")
	}
}

func sameFiles(a, b []genFile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].data, b[i].data) {
			return false
		}
	}
	return true
}

func TestCampaignDocsFollowSeed(t *testing.T) {
	a, _ := campaignDocs(1)
	b, _ := campaignDocs(1)
	c, _ := campaignDocs(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 generated two different campaign documents")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 generated the same campaign documents")
	}
}

func TestRingInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(ringRequests(1, 10, 500), ringRequests(1, 10, 500)) {
		t.Error("seed 1 generated two different request lists")
	}
	if reflect.DeepEqual(ringRequests(1, 10, 500), ringRequests(2, 10, 500)) {
		t.Error("seeds 1 and 2 generated the same request list")
	}
	k1, err := ringUniverseFor(1)
	if err != nil {
		t.Fatal(err)
	}
	k1b, _ := ringUniverseFor(1)
	k2, _ := ringUniverseFor(2)
	order := func(keys []ringKey) []string {
		var out []string
		for _, k := range keys {
			out = append(out, k.path)
		}
		return out
	}
	if !reflect.DeepEqual(order(k1), order(k1b)) {
		t.Error("seed 1 ranked the key universe two ways")
	}
	if reflect.DeepEqual(order(k1), order(k2)) {
		t.Error("seeds 1 and 2 ranked the key universe the same way")
	}
}

// TestGeneratedModuleMeetsPrediction lints one generated module in process
// and compares every analyzer's finding count with the prediction.
func TestGeneratedModuleMeetsPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	mod, err := generateModule(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeModule(dir, mod.files); err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadTreeParallel(dir, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != mod.units {
		t.Errorf("loaded %d units, generator counted %d", len(pkgs), mod.units)
	}
	got := map[string]int{}
	for _, d := range lint.LintAll(pkgs, lint.All()).Findings {
		got[d.Analyzer]++
	}
	if !reflect.DeepEqual(got, mod.predict) {
		t.Errorf("findings per analyzer %v, predicted %v", got, mod.predict)
	}
}
