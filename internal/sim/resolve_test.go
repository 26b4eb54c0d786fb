package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/topology"
)

// resolveGraph returns a compressed graph on n nodes whose degrees mix 0
// to 7: every eleventh node is isolated, and random edges fill the rest
// up to a degree cap of 7.
func resolveGraph(rng *rand.Rand, n int) *topology.Graph {
	g := topology.NewGraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%11 != 0 && v%11 != 0 && g.Degree(u) < 7 && g.Degree(v) < 7 {
			g.AddEdge(u, v)
		}
	}
	return g.Compress()
}

// randomWindowWord returns a window word of a random kind: empty, dense,
// sparse, one with only the window's first and last slot (the largest
// gap inside a window), or a single slot.
func randomWindowWord(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return rng.Uint64()
	case 2:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	case 3:
		return 1 | 1<<63
	case 4:
		return 1 << rng.Intn(wordBits)
	default:
		return 1<<rng.Intn(wordBits) | 1<<rng.Intn(wordBits) | 1<<rng.Intn(wordBits)
	}
}

// fillWindow draws a random window into sc: transmit and receive words
// with disjoint roles, as every schedule has.
func fillWindow(rng *rand.Rand, sc *satFastScratch) {
	for v := range sc.tw {
		sc.tw[v] = randomWindowWord(rng)
		sc.rw[v] = randomWindowWord(rng) &^ sc.tw[v]
	}
}

// fillRecords draws random link records that end before frame slot base:
// a third of the links have no delivery yet. With base 0 every record is
// empty, as in a frame's first window.
func fillRecords(rng *rand.Rand, sc *satFastScratch, base int) {
	for e := range sc.cnt {
		sc.cnt[e], sc.first[e], sc.last[e] = 0, -1, -1
		if base > 0 && rng.Intn(3) != 0 {
			sc.last[e] = int32(rng.Intn(base))
			sc.first[e] = int32(rng.Intn(int(sc.last[e]) + 1))
			sc.cnt[e] = int32(1 + rng.Intn(5))
		}
	}
}

// cloneScratch copies every row the resolve passes read or write.
func cloneScratch(sc *satFastScratch) *satFastScratch {
	return &satFastScratch{
		tw: slices.Clone(sc.tw), rw: slices.Clone(sc.rw), x1: slices.Clone(sc.x1),
		dst: slices.Clone(sc.dst), multi: slices.Clone(sc.multi),
		cnt: slices.Clone(sc.cnt), first: slices.Clone(sc.first), last: slices.Clone(sc.last),
		colls: slices.Clone(sc.colls), gaps: slices.Clone(sc.gaps),
	}
}

// sameRows reports the first row in which two scratches differ.
func sameRows(got, want *satFastScratch) error {
	for _, r := range []struct {
		name      string
		got, want any
	}{
		{"x1", got.x1, want.x1}, {"multi", got.multi, want.multi},
		{"cnt", got.cnt, want.cnt}, {"first", got.first, want.first}, {"last", got.last, want.last},
		{"colls", got.colls, want.colls}, {"gaps", got.gaps, want.gaps},
	} {
		if fmt.Sprint(r.got) != fmt.Sprint(r.want) {
			return fmt.Errorf("%s differs:\ngot  %v\nwant %v", r.name, r.got, r.want)
		}
	}
	return nil
}

// TestResolveKernels holds each AVX-512 leaf to its Go twin on random
// windows over a 200-node graph whose degrees mix 0 to 7, isolated nodes
// included: the contention pass on receiver ranges of 1 to 17 nodes and
// the delivery pass on link ranges of 1 to 17 links, each starting at a
// 64-aligned shard offset, so every group count and tail length runs.
// Then whole windows through resolveWindow, the kernel path against the
// Go loop, on the shard ranges of one to three shards, with a running gap
// below 62 (so the in-word gaps decide) and at or above it.
func TestResolveKernels(t *testing.T) {
	if !cpufeat.ResolveKernel {
		t.Skip("the resolve kernel needs AVX-512F, DQ, CD, VL and VPOPCNTDQ")
	}
	const n = 200
	rng := rand.New(rand.NewSource(23))
	g := resolveGraph(rng, n)
	sc := new(satFastScratch)
	a := sc.reset(g, 3, true)

	t.Run("contend", func(t *testing.T) {
		for _, lo := range []int{0, 64, 128} {
			for length := 1; length <= 17; length++ {
				fillWindow(rng, sc)
				for v := range sc.x1 {
					sc.x1[v] = 0xa5a5a5a5a5a5a5a5 // rows outside the range must keep it
				}
				ref := cloneScratch(sc)
				got, want := sc.contend(a, lo, lo+length), ref.contendGo(a, lo, lo+length)
				if err := sameRows(sc, ref); err != nil || got != want {
					t.Fatalf("receivers [%d, %d): %d collisions, want %d; %v", lo, lo+length, got, want, err)
				}
			}
		}
	})

	t.Run("deliver", func(t *testing.T) {
		for _, lo := range []int{0, 64, 128} {
			elo := int(a.off[lo])
			for length := 1; length <= 17; length++ {
				for _, base := range []int{0, 192} {
					fillWindow(rng, sc)
					sc.contendGo(a, 0, n)
					fillRecords(rng, sc, base)
					for i := range sc.multi {
						sc.multi[i] = 0x5a // bytes past the range must keep it
					}
					ref := cloneScratch(sc)
					got := sc.deliver(a.nbr, sc.multi, elo, elo+length, base)
					want := ref.deliverGo(a.nbr, ref.multi, elo, elo+length, base)
					if err := sameRows(sc, ref); err != nil || got != want {
						t.Fatalf("links [%d, %d) at base %d: gap %d, want %d; %v", elo, elo+length, base, got, want, err)
					}
				}
			}
		}
	})

	t.Run("window", func(t *testing.T) {
		inWord := false
		for shards := 1; shards <= 3; shards++ {
			for _, base := range []int{0, 192} {
				for _, running := range []int{0, 30, 61, 62, 90} {
					fillWindow(rng, sc)
					fillRecords(rng, sc, base)
					for si := range sc.gaps {
						sc.colls[si], sc.gaps[si] = 0, running
					}
					ref := cloneScratch(sc)
					for si, r := range shardRanges(n, shards) {
						resolveWindow(a, sc, si, r[0], r[1], base, true)
						resolveWindow(a, ref, si, r[0], r[1], base, false)
					}
					// The Go loop writes neither x1 nor the flags.
					ref.x1, ref.multi = sc.x1, sc.multi
					if err := sameRows(sc, ref); err != nil {
						t.Fatalf("shards=%d base=%d running gap %d: %v", shards, base, running, err)
					}
					inWord = inWord || base == 0 && sc.gaps[0] > running
				}
			}
		}
		if !inWord {
			t.Fatal("no window raised a running gap below 62 from inside a word")
		}
	})
}
