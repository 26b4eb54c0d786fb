// Dynamic topology: the reason to be topology-transparent. Sensors drift
// (random-waypoint-style steps in the unit square); a schedule built once
// must keep every link alive without re-coordination. The
// topology-transparent duty-cycling schedule never starves a link; the
// topology-DEPENDENT coloring TDMA — optimal for the initial deployment —
// starts failing as soon as nodes move.
package main

import (
	"fmt"
	"log"
	"os"

	ttdc "repro"
	"repro/internal/tablewriter"
)

func main() {
	const (
		n    = 20
		d    = 3
		seed = 42
	)
	rng := ttdc.NewRNG(seed)
	dep := ttdc.RandomGeometric(n, 0.35, rng)
	dep.Graph.EnforceMaxDegree(d, rng)

	// Topology-transparent duty cycling, built with NO topology knowledge.
	ns, err := ttdc.PolynomialSchedule(n, d)
	if err != nil {
		log.Fatal(err)
	}
	tt, err := ttdc.Construct(ns, ttdc.ConstructOptions{AlphaT: 3, AlphaR: 6, D: d})
	if err != nil {
		log.Fatal(err)
	}
	// Topology-dependent coloring TDMA, built from the INITIAL deployment.
	coloring, err := ttdc.ColoringTDMA(dep.Graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedules: TT duty cycling L=%d (%.0f%% awake) vs coloring TDMA L=%d (100%% awake)\n\n",
		tt.L(), 100*tt.ActiveFraction(), coloring.L())

	tab := tablewriter.New("Links starved per mobility step (saturation, 1 frame each)",
		"step", "edges", "TT starved", "TT delivery %", "coloring starved", "coloring delivery %")
	for step := 0; step <= 8; step++ {
		g := dep.Graph.Clone()
		g.EnforceMaxDegree(d, rng)
		ttStarved, ttOK := starved(g, tt)
		colStarved, colOK := starved(g, coloring)
		tab.AddRow(step, g.EdgeCount(), ttStarved,
			fmt.Sprintf("%.0f", 100*ttOK), colStarved, fmt.Sprintf("%.0f", 100*colOK))
		dep.Step(0.12, rng)
	}
	if err := tab.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe TT schedule guarantees a collision-free slot per link per frame in EVERY")
	fmt.Println("degree-<=3 topology, so mobility cannot starve it. The coloring schedule only")
	fmt.Println("promised that for the deployment it saw at build time.")
}

// starved runs one saturation frame and reports (number of starved directed
// links, fraction of links that delivered).
func starved(g *ttdc.Graph, s *ttdc.Schedule) (int, float64) {
	res, err := ttdc.RunSaturation(g, s, 1, ttdc.DefaultEnergy())
	if err != nil {
		log.Fatal(err)
	}
	total, bad := 0, 0
	for _, row := range res.Delivered {
		for _, d := range row {
			total++
			if d == 0 {
				bad++
			}
		}
	}
	if total == 0 {
		return 0, 1
	}
	return bad, float64(total-bad) / float64(total)
}
