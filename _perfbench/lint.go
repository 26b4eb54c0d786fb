package main

import (
	"encoding/json"
	"maps"
	"path/filepath"
	"sort"

	"repro/internal/lint"
)

// prepareLint writes the seed's module.
func prepareLint(cfg config) (mod *genModule, dir string, err error) {
	mod, err = generateModule(cfg.seed)
	if err != nil {
		return nil, "", err
	}
	dir = filepath.Join(cfg.build, "work", "lintmod")
	return mod, dir, writeModule(dir, mod.files)
}

// lintLayers are the lint path's per-layer metrics; totals in seconds.
func lintLayers() []metricDef {
	defs := []metricDef{
		{"lint.stdlib_import_s", "s"},
		{"lint.stdlib_packages", "count"},
		{"lint.module_load_s", "s"},
		{"lint.packages", "count"},
		{"lint.files", "count"},
		{"lint.build_program_s", "s"},
	}
	for _, a := range lint.All() {
		defs = append(defs, metricDef{"lint.analyzer_s." + a.Name, "s"})
	}
	return append(defs,
		metricDef{"lint.report_s", "s"},
		metricDef{"lint.findings", "count"},
		metricDef{"lint.unattributed_share", "ratio"})
}

// lintTraced runs the lint pipeline through the library with a span
// around each stage: stdlib imports first, then the module load, the
// call-graph program, every analyzer over every unit, and the report. The
// per-analyzer finding counts must equal the generator's prediction.
func lintTraced(cfg config, tr *tracer, res *result) error {
	mod, dir, err := prepareLint(cfg)
	if err != nil {
		return err
	}
	first := len(tr.snapshot())
	t0 := tr.now()
	var loader *lint.Loader
	if tr.timed("lint.new_loader", kindRun, -1, -1, func() { loader, err = lint.NewLoader(dir) }); err != nil {
		return err
	}
	std := append(sortedKeys(genStdlib), "testing", "testing/quick")
	sort.Strings(std)
	for _, p := range std {
		if tr.timed("lint.stdlib_import", kindRun, -1, -1, func() { _, err = loader.Import(p) }); err != nil {
			return err
		}
	}
	var pkgs []*lint.Package
	if tr.timed("lint.module_load", kindRun, -1, -1, func() { pkgs, err = loader.LoadTreeParallel(dir, true, 0) }); err != nil {
		return err
	}
	tr.timed("lint.build_program", kindRun, -1, -1, func() {
		prog := lint.BuildProgram(pkgs)
		for _, p := range pkgs {
			p.Prog = prog
		}
	})
	var diags []lint.Diagnostic
	counts := map[string]int{}
	for _, a := range lint.All() {
		for _, p := range pkgs {
			tr.timed("lint.analyzer."+a.Name, kindRun, -1, -1, func() {
				found := a.Run(p)
				diags = append(diags, found...)
				counts[a.Name] += len(found)
			})
		}
	}
	tr.timed("lint.report", kindRun, -1, -1, func() {
		sort.Slice(diags, func(i, j int) bool {
			a, b := diags[i].Pos, diags[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Line < b.Line || (a.Line == b.Line && a.Column < b.Column)
		})
		_, err = json.Marshal(diags)
	})
	if err != nil {
		return err
	}
	total := tr.now() - t0
	res.check(maps.Equal(counts, mod.predict), "traced lint per-analyzer counts %v, generator predicted %v", counts, mod.predict)

	sums := map[string]int64{}
	var spanned int64
	for _, sp := range tr.snapshot()[first:] {
		sums[sp.Name] += sp.dur()
		spanned += sp.dur()
	}
	files := 0
	for _, p := range pkgs {
		files += len(p.Files)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	res.set("lint.stdlib_import_s", sec(sums["lint.stdlib_import"]))
	res.set("lint.stdlib_packages", float64(len(std)))
	res.set("lint.module_load_s", sec(sums["lint.module_load"]+sums["lint.new_loader"]))
	res.set("lint.packages", float64(len(pkgs)))
	res.set("lint.files", float64(files))
	res.set("lint.build_program_s", sec(sums["lint.build_program"]))
	for _, a := range lint.All() {
		res.set("lint.analyzer_s."+a.Name, sec(sums["lint.analyzer."+a.Name]))
	}
	res.set("lint.report_s", sec(sums["lint.report"]))
	res.set("lint.findings", float64(len(diags)))
	res.set("lint.unattributed_share", float64(total-spanned)/float64(total))
	return nil
}
