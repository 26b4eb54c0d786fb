package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCampaignJournalDigests pins whole campaign journals to SHA-256
// digests recorded from an earlier build, so a rewrite of a job kernel
// — Construct's subset division, the saturation link counts, the
// convergecast arrival draws — that moves any byte of any record fails
// here. TestJobsJournalMatchesExecuteJob cannot catch that: both of its
// sides run the current kernels. The saturation campaigns cross both
// division strategies with two duty points on regular topologies whose
// node sets span several 64-bit words; the convergecast campaign is a
// replicated grid at the default arrival rate. Update a digest only for
// a change that is meant to alter the journal, and say so where it is
// recorded.
func TestCampaignJournalDigests(t *testing.T) {
	saturation := func(strategy string) *Campaign {
		return &Campaign{
			Name: "digest-saturation", N: []int{70, 130}, D: []int{2},
			Duty:     []DutyPoint{{AlphaT: 2, AlphaR: 4}, {AlphaT: 5, AlphaR: 40}},
			Strategy: strategy, Topology: "regular", Workload: "saturation",
			Frames: 2, Replications: 2, Seed: 8,
		}
	}
	cases := []struct {
		name   string
		c      *Campaign
		digest string
	}{
		{"saturation/sequential", saturation("sequential"), "3fa904695f68517de025ce20bfb73363f6ef4cf4416b552757adfd4a75c08598"},
		{"saturation/balanced", saturation("balanced"), "fe1e2e264333e137edeb554101cd6bc47e1291cd161c9c7af36c35acd65b68e8"},
		{"convergecast/grid", &Campaign{
			Name: "digest-convergecast", N: []int{400}, D: []int{4},
			Duty:     []DutyPoint{{AlphaT: 20, AlphaR: 120}, {AlphaT: 40, AlphaR: 200}},
			Topology: "grid", Workload: "convergecast",
			Frames: 3, Replications: 4, Seed: 9,
		}, "a8758c00e146012707c910141c180ed57beb09553332f7f352935d913e8e39d3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(runToJournal(t, tc.c, 2))
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("journal SHA-256 = %s, want %s", got, tc.digest)
			}
		})
	}
}
