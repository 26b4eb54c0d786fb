package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestAllocGateFilesCurrent is the drift check for the generated AllocsPerRun
// gates: it re-derives every alloc_gate_test.go from the live //ttdc:hotpath
// inventory and byte-compares with the checked-in copies, and it flags any
// gate file on disk that the inventory no longer produces. Regenerate with
// ttdclint -write-alloc-gates.
func TestAllocGateFilesCurrent(t *testing.T) {
	loader, err := lint.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadTree(loader.Root, true)
	if err != nil {
		t.Fatal(err)
	}
	entries := lint.BuildProgram(pkgs).Hotpaths()
	files, err := allocGateFiles(entries, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no package has exported //ttdc:hotpath entries; the dogfooded contracts are gone")
	}

	for path, want := range files {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing gate file %s; run ttdclint -write-alloc-gates", relPath(loader.Root, path))
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; run ttdclint -write-alloc-gates", relPath(loader.Root, path))
		}
	}

	walkErr := filepath.WalkDir(loader.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != loader.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "alloc_gate_test.go" {
			return nil
		}
		if _, ok := files[path]; !ok {
			t.Errorf("%s gates no exported //ttdc:hotpath entry; delete it or restore the annotations", relPath(loader.Root, path))
		}
		return nil
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
}
