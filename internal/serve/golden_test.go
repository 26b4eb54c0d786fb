package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// TestArtifactGoldenDigests pins the content digest (the ETag stem) of the
// wire frame served for a spread of keys. The digests were recorded from
// a bit-by-bit construction of the same schedules, so they hold the block
// transposes, shared subsets and parent-row polynomial evaluation to
// byte-identical output. The keys cover both division
// strategies, classes whose receiver subsets Construct pads
// (|V - T[i]| < αR), bases, the ring benchmark's small classes, node
// counts across word boundaries, and campaign-size classes.
func TestArtifactGoldenDigests(t *testing.T) {
	S, B := core.Sequential, core.Balanced
	for _, c := range []struct {
		key    schedcache.Key
		l      int
		digest string
	}{
		{schedcache.Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: S}, 200, "921760db95ab40e031cc68ed7af105d8"},
		{schedcache.Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: B}, 200, "8bb62efd5cd29acb9f4a1ed3a506ea52"},
		{schedcache.Key{N: 9, D: 2, AlphaT: 2, AlphaR: 7, Strategy: S}, 18, "ef7f14dbe9fb2243a4dab80c7af5bf65"}, // padded
		{schedcache.Key{N: 9, D: 2, AlphaT: 2, AlphaR: 7, Strategy: B}, 18, "121733a7700760b23da3c2d4b5984979"}, // padded
		{schedcache.Key{N: 9, D: 2}, 9, "8f75edc6504e5da653cc6a9d72f067fa"},
		{schedcache.Key{N: 16, D: 3, AlphaT: 4, AlphaR: 12, Strategy: B}, 16, "39dbd5fc9f44065b5b9a538dce74d597"},
		{schedcache.Key{N: 36, D: 2, AlphaT: 4, AlphaR: 8, Strategy: S}, 200, "bbc007f02e5f301362ed4a660f70b181"},
		{schedcache.Key{N: 49, D: 3, AlphaT: 2, AlphaR: 6, Strategy: B}, 1372, "ea319ffbb3838d34174ac47be9a1102c"},
		{schedcache.Key{N: 64, D: 2, AlphaT: 1, AlphaR: 3, Strategy: S}, 5500, "b44e913a96f45a0cd9fd77d1bc287d9a"},
		{schedcache.Key{N: 64, D: 3}, 49, "beab9ac6912a915ff6b4c0e5683a3aef"},
		{schedcache.Key{N: 130, D: 2, AlphaT: 5, AlphaR: 120, Strategy: B}, 196, "c9a818215cd7c23beb9f6392db815762"},  // padded
		{schedcache.Key{N: 400, D: 4, AlphaT: 20, AlphaR: 120, Strategy: S}, 729, "e522a479fadf2b2a00f3fa4946a762d6"}, // GF(9)
		{schedcache.Key{N: 8400, D: 3, AlphaT: 250, AlphaR: 2000, Strategy: S}, 1936, "500270184eaaaa875b713660103edc2e"},
		{schedcache.Key{N: 8700, D: 2, AlphaT: 400, AlphaR: 2500, Strategy: S}, 972, "06d734963f5f2a2e69f8a440b6a63a7e"}, // GF(9)
		{schedcache.Key{N: 9000, D: 2, AlphaT: 500, AlphaR: 4000, Strategy: S}, 324, "61099de032199ca133daaa22a77886bf"},
	} {
		if testing.Short() && c.key.N > 1000 {
			continue
		}
		a, _, err := NewService(1).Artifact(c.key)
		if err != nil {
			t.Fatalf("%s: %v", c.key.Canonical(), err)
		}
		if l := a.Frame.Schedule.L(); l != c.l || a.Digest != c.digest {
			t.Errorf("%s: L = %d, digest %s; want L = %d, digest %s", c.key.Canonical(), l, a.Digest, c.l, c.digest)
		}
	}
}
