package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/wire"
)

// TestArtifactGoldenDigests pins the content digest (the ETag stem) of the
// wire frame served for a spread of keys, and the same 128-bit SHA-256
// digest of the JSON document. The wire digests were recorded from a
// bit-by-bit construction of the same schedules, so they hold the block
// transposes, shared subsets and parent-row polynomial evaluation to
// byte-identical output; the JSON digests were recorded from the
// reflection encoder (now the oracle in the root package's tests), so
// they hold the one-pass appender to the same bytes. The keys cover both
// division strategies, classes whose receiver subsets Construct pads
// (|V - T[i]| < αR), bases, the ring benchmark's small classes, node
// counts across word boundaries, and campaign-size classes.
func TestArtifactGoldenDigests(t *testing.T) {
	S, B := core.Sequential, core.Balanced
	for _, c := range []struct {
		key    schedcache.Key
		l      int
		digest string
		json   string
	}{
		{schedcache.Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: S}, 200, "921760db95ab40e031cc68ed7af105d8", "1a1a6d0a75107eccc6483bd37fd080fa"},
		{schedcache.Key{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: B}, 200, "8bb62efd5cd29acb9f4a1ed3a506ea52", "d0cd01db37dc34d1c4f221297ef1c690"},
		{schedcache.Key{N: 9, D: 2, AlphaT: 2, AlphaR: 7, Strategy: S}, 18, "ef7f14dbe9fb2243a4dab80c7af5bf65", "bc4049d0800fd9c0ead3d1402a747f6c"}, // padded
		{schedcache.Key{N: 9, D: 2, AlphaT: 2, AlphaR: 7, Strategy: B}, 18, "121733a7700760b23da3c2d4b5984979", "c4674b97db9d51ea48a9340dc375a1c9"}, // padded
		{schedcache.Key{N: 9, D: 2}, 9, "8f75edc6504e5da653cc6a9d72f067fa", "b69892d70088d797fa70f6e342e57dbd"},
		{schedcache.Key{N: 16, D: 3, AlphaT: 4, AlphaR: 12, Strategy: B}, 16, "39dbd5fc9f44065b5b9a538dce74d597", "09df5331e91e2b01b260ca22825cb92b"},
		{schedcache.Key{N: 36, D: 2, AlphaT: 4, AlphaR: 8, Strategy: S}, 200, "bbc007f02e5f301362ed4a660f70b181", "f4ed4a39526049029f87a04e291952ae"},
		{schedcache.Key{N: 49, D: 3, AlphaT: 2, AlphaR: 6, Strategy: B}, 1372, "ea319ffbb3838d34174ac47be9a1102c", "058fbb84c01b556bf235a586a05f3cb1"},
		{schedcache.Key{N: 64, D: 2, AlphaT: 1, AlphaR: 3, Strategy: S}, 5500, "b44e913a96f45a0cd9fd77d1bc287d9a", "6df5ef7b008c5b5e8f418edddd0e2d43"},
		{schedcache.Key{N: 64, D: 3}, 49, "beab9ac6912a915ff6b4c0e5683a3aef", "365d32dd36ea5ec9f15fee232c2e6b59"},
		{schedcache.Key{N: 130, D: 2, AlphaT: 5, AlphaR: 120, Strategy: B}, 196, "c9a818215cd7c23beb9f6392db815762", "43c74a1bacd240dba354188dd57c1449"},  // padded
		{schedcache.Key{N: 400, D: 4, AlphaT: 20, AlphaR: 120, Strategy: S}, 729, "e522a479fadf2b2a00f3fa4946a762d6", "d3b6d3c90f0c4ad878ae7f882fb76ae9"}, // GF(9)
		{schedcache.Key{N: 8400, D: 3, AlphaT: 250, AlphaR: 2000, Strategy: S}, 1936, "500270184eaaaa875b713660103edc2e", "5d75727995c76747c7054a9182d2ec58"},
		{schedcache.Key{N: 8700, D: 2, AlphaT: 400, AlphaR: 2500, Strategy: S}, 972, "06d734963f5f2a2e69f8a440b6a63a7e", "02101bbec2273fe6d55768fa21f8d956"}, // GF(9)
		{schedcache.Key{N: 9000, D: 2, AlphaT: 500, AlphaR: 4000, Strategy: S}, 324, "61099de032199ca133daaa22a77886bf", "550a65fbc7c8dae58415269196a8d90a"},
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
		if got := wire.Digest(a.JSON); got != c.json {
			t.Errorf("%s: JSON digest %s, want %s", c.key.Canonical(), got, c.json)
		}
	}
}
