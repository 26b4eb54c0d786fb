package sim

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// TestConvergecastForwardingQueueDrop forces a drop at a relay rather than
// at generation: on a line 2→1→0 with MaxQueue=1, node 1's own packet
// occupies its queue, so a packet forwarded up from node 2 finds the relay
// full and is dropped in the reception path. Distinguishes the two Dropped
// accounting sites in the loop.
func TestConvergecastForwardingQueueDrop(t *testing.T) {
	g := topology.Line(3)
	s := tdmaSchedule(t, 3)
	for _, legacy := range []bool{false, true} {
		run := RunConvergecast
		if legacy {
			run = runConvergecastReference
		}
		res, err := run(g, s, ConvergecastConfig{
			Sink: 0, Rate: 0.8, Frames: 60, MaxQueue: 1, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped == 0 {
			t.Fatalf("legacy=%v: relay under load with MaxQueue=1 dropped nothing", legacy)
		}
		if res.Delivered == 0 {
			t.Fatalf("legacy=%v: nothing delivered", legacy)
		}
		// Conservation: everything generated is delivered, dropped, or
		// still queued (no in-flight leakage across the measurement cut in
		// a warmup-free run).
		if res.Generated != res.Delivered+res.Dropped+res.InFlight {
			t.Fatalf("legacy=%v: %d generated != %d delivered + %d dropped + %d in flight",
				legacy, res.Generated, res.Delivered, res.Dropped, res.InFlight)
		}
	}
}

// TestConvergecastWarmupEnergySemantics pins the WarmupFrames contract:
// warmup slots are simulated (they cost energy and shape queues) but are
// excluded from the packet counters. A run with W warmup + F measured
// frames spends exactly the energy of a W+F-frame run with no warmup —
// same seed, same trajectory, different measurement cut — while counting
// strictly fewer generated packets.
func TestConvergecastWarmupEnergySemantics(t *testing.T) {
	g := topology.Line(4)
	s := tdmaSchedule(t, 4)
	const w, f = 6, 10
	warm, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink: 0, Rate: 0.2, Frames: f, WarmupFrames: w, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunConvergecast(g, s, ConvergecastConfig{
		Sink: 0, Rate: 0.2, Frames: w + f, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalEnergy != full.TotalEnergy {
		t.Fatalf("warmup energy %v != full-run energy %v (identical trajectories)", warm.TotalEnergy, full.TotalEnergy)
	}
	if !reflect.DeepEqual(warm.EnergyPerNode, full.EnergyPerNode) {
		t.Fatal("per-node energy differs between identical trajectories")
	}
	if warm.Generated >= full.Generated {
		t.Fatalf("warmup run counted %d generated, full run %d — warmup not excluded", warm.Generated, full.Generated)
	}
	if warm.ActiveFraction != full.ActiveFraction {
		t.Fatalf("ActiveFraction %v != %v on identical trajectories", warm.ActiveFraction, full.ActiveFraction)
	}
}

// TestConvergecastSinglePhaseEqualsConstantRate pins the Phases cycling
// semantics: one phase spanning any duration is indistinguishable — field
// for field — from the constant Rate it encodes, whatever the phase length
// relative to the frame.
func TestConvergecastSinglePhaseEqualsConstantRate(t *testing.T) {
	g := topology.Ring(5)
	s := tdmaSchedule(t, 5)
	base := ConvergecastConfig{Sink: 0, Rate: 0.3, Frames: 8, Seed: 13}
	constant, err := RunConvergecast(g, s, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, phaseSlots := range []int{1, 3, 7} { // shorter than, incommensurate with, longer than L=5
		phased := base
		phased.Rate = 0.9 // must be ignored when Phases is set
		phased.Phases = []TrafficPhase{{Slots: phaseSlots, Rate: 0.3}}
		res, err := RunConvergecast(g, s, phased)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, constant) {
			t.Fatalf("phase of %d slots at the constant rate diverged from the plain-rate run", phaseSlots)
		}
	}
}

// TestConvergecastZeroRatePhaseGeneratesNothing: an all-quiet phase
// pattern consumes no randomness and generates no traffic, on both paths.
func TestConvergecastZeroRatePhaseGeneratesNothing(t *testing.T) {
	g := topology.Ring(5)
	s := tdmaSchedule(t, 5)
	for _, legacy := range []bool{false, true} {
		run := RunConvergecast
		if legacy {
			run = runConvergecastReference
		}
		res, err := run(g, s, ConvergecastConfig{
			Sink: 0, Frames: 6, Seed: 17,
			Phases: []TrafficPhase{{Slots: 4, Rate: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generated != 0 || res.Delivered != 0 || res.InFlight != 0 {
			t.Fatalf("legacy=%v: quiet network moved packets: %+v", legacy, res)
		}
		if res.DeliveryRatio != 1 {
			t.Fatalf("legacy=%v: empty run DeliveryRatio = %v, want 1", legacy, res.DeliveryRatio)
		}
	}
}

func TestConvergecastInvalidPhaseRejected(t *testing.T) {
	g := topology.Ring(5)
	s := tdmaSchedule(t, 5)
	for _, phases := range [][]TrafficPhase{
		{{Slots: 0, Rate: 0.5}},
		{{Slots: -2, Rate: 0.5}},
		{{Slots: 3, Rate: -0.1}},
		{{Slots: 3, Rate: 0.5}, {Slots: 0, Rate: 1}},
	} {
		if _, err := RunConvergecast(g, s, ConvergecastConfig{
			Sink: 0, Frames: 2, Phases: phases,
		}); err == nil {
			t.Fatalf("invalid phases %+v accepted", phases)
		}
	}
}
