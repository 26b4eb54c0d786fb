// Command ttdcsim runs the slot-level WSN simulator with a schedule (JSON
// from ttdcgen or built in-process) on a chosen topology, and prints either
// the worst-case saturation report or the convergecast report.
//
// Usage:
//
//	ttdcgen -n 25 -D 2 -alphaT 3 -alphaR 5 | ttdcsim -topo regular -D 2 -mode saturation
//	ttdcsim -gen polynomial -n 25 -D 2 -topo geometric -radius 0.3 -mode convergecast -rate 0.002
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	ttdc "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen    = fs.String("gen", "", "build schedule in-process: tdma | polynomial | steiner (default: read JSON from stdin)")
		n      = fs.Int("n", 25, "number of nodes")
		d      = fs.Int("D", 2, "degree bound")
		alphaT = fs.Int("alphaT", 0, "construct (αT, αR)-schedule when both set")
		alphaR = fs.Int("alphaR", 0, "construct (αT, αR)-schedule when both set")
		topo   = fs.String("topo", "regular", "topology: regular | ring | grid | geometric | random")
		radius = fs.Float64("radius", 0.3, "geometric topology radius")
		mode   = fs.String("mode", "saturation", "workload: saturation | convergecast | flood")
		frames = fs.Int("frames", 10, "frames to simulate")
		rate   = fs.Float64("rate", 0.002, "convergecast packets/slot/node")
		sink   = fs.Int("sink", 0, "convergecast sink / flood source node")
		seed   = fs.Uint64("seed", 1, "random seed")
		loss   = fs.Float64("loss", 0, "per-reception erasure probability")
		capt   = fs.Float64("capture", 0, "probability a collision still delivers one packet")
		drift  = fs.Float64("drift", 0, "clock drift bound in ppm (0 = perfect sync)")
		guard  = fs.Float64("guard", 0.1, "guard band as a fraction of the slot")
		resync = fs.Int("resync", 0, "slots between resynchronizations (0 = never)")
		shards = fs.Int("shards", 0, "intra-run shards for the fast-path kernels: 0/1 sequential, -1 one per CPU (results identical at every value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := loadSchedule(stdin, *gen, *n, *d, *alphaT, *alphaR)
	if err != nil {
		return err
	}
	nodes := s.N()
	if *n < nodes {
		nodes = *n
	}
	g, err := buildTopo(*topo, nodes, *d, *radius, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "schedule: n=%d L=%d active=%.3f | topology: %s, %d nodes, %d edges, maxdeg %d\n",
		s.N(), s.L(), s.ActiveFraction(), *topo, g.N(), g.EdgeCount(), g.MaxDegree())

	channel := ttdc.Channel{LossProb: *loss, CaptureProb: *capt}
	var clock *ttdc.ClockModel
	if *drift > 0 {
		clock = &ttdc.ClockModel{
			MaxDriftPPM: *drift, GuardFraction: *guard, ResyncInterval: *resync, Seed: *seed,
		}
		fmt.Fprintf(stdout, "clock: ±%.0f ppm, guard %.0f%% of slot, resync every %d slots (required <= %d)\n",
			*drift, 100**guard, *resync, ttdc.RequiredResyncInterval(*clock))
	}

	switch *mode {
	case "saturation":
		res, err := ttdc.RunSaturationSharded(g, s, *frames, ttdc.DefaultEnergy(), *shards)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "frames=%d  min link/frame=%.3f  avg link/frame=%.3f\n",
			res.Frames, res.MinLinkPerFrame, res.AvgLinkPerFrame)
		fmt.Fprintf(stdout, "min link throughput=%.6f  avg=%.6f  collisions=%d\n",
			res.MinLinkThroughput, res.AvgLinkThroughput, res.CollisionSlots)
		fmt.Fprintf(stdout, "energy=%.4f J  per delivery=%.6f J  active fraction=%.3f\n",
			res.TotalEnergy, res.EnergyPerDelivery, res.ActiveFraction)
	case "convergecast":
		res, err := ttdc.RunConvergecast(g, s, ttdc.ConvergecastConfig{
			Sink: *sink, Rate: *rate, Frames: *frames, Seed: *seed,
			Channel: channel, Clock: clock, Shards: *shards,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "generated=%d delivered=%d dropped=%d in-flight=%d (delivery ratio %.3f)\n",
			res.Generated, res.Delivered, res.Dropped, res.InFlight, res.DeliveryRatio)
		fmt.Fprintf(stdout, "latency slots: %s\n", res.Latency.String())
		fmt.Fprintf(stdout, "energy=%.4f J  per delivered=%.6f J  active fraction=%.3f  collisions=%d\n",
			res.TotalEnergy, res.EnergyPerDelivered, res.ActiveFraction, res.Collisions)
	case "flood":
		res, err := ttdc.RunFlood(g, ttdc.ScheduleProtocol{S: s}, ttdc.FloodConfig{
			Source: *sink, MaxFrames: *frames, Seed: *seed,
			Channel: channel, Clock: clock,
		})
		if err != nil {
			return err
		}
		completion := "incomplete"
		if res.CompletionSlot >= 0 {
			completion = fmt.Sprintf("slot %d", res.CompletionSlot)
		}
		fmt.Fprintf(stdout, "covered=%d/%d  completion=%s  (analytic bound: %d slots)\n",
			res.Covered, g.N(), completion, (ttdc.Eccentricity(g, *sink)+1)*s.L())
		fmt.Fprintf(stdout, "energy=%.4f J  active fraction=%.3f  collisions=%d\n",
			res.TotalEnergy, res.ActiveFraction, res.Collisions)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}

func loadSchedule(stdin io.Reader, gen string, n, d, alphaT, alphaR int) (*ttdc.Schedule, error) {
	var s *ttdc.Schedule
	var err error
	switch gen {
	case "":
		return ttdc.DecodeSchedule(stdin)
	case "tdma":
		s, err = ttdc.TDMA(n)
	case "polynomial":
		s, err = ttdc.PolynomialSchedule(n, d)
	case "steiner":
		s, err = ttdc.SteinerSchedule(n)
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
	if err != nil {
		return nil, err
	}
	if alphaT > 0 && alphaR > 0 {
		return ttdc.Construct(s, ttdc.ConstructOptions{AlphaT: alphaT, AlphaR: alphaR, D: d})
	}
	return s, nil
}

func buildTopo(kind string, n, d int, radius float64, seed uint64) (*ttdc.Graph, error) {
	rng := ttdc.NewRNG(seed)
	switch kind {
	case "regular":
		return ttdc.Regularish(n, d), nil
	case "ring":
		return ttdc.Ring(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return ttdc.Grid(side, side), nil
	case "geometric":
		dep := ttdc.RandomGeometric(n, radius, rng)
		dep.Graph.EnforceMaxDegree(d, rng)
		return dep.Graph, nil
	case "random":
		return ttdc.RandomBoundedDegree(n, d, n/4, rng), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}
