package sim

import "math/bits"

// The AVX-512 path of resolveWindow (DESIGN.md §11) splits the fused Go
// loop into two passes, each eight lanes wide: a contention pass over the
// receivers, which writes every receiver's x1 word, and a delivery pass
// over the v-major links, which reads x1 back through dst. Whole groups of
// eight go to the assembly leaves (resolve_amd64.s); the rest of a range
// runs the Go twins below, which compute exactly what the leaves do, as
// TestResolveKernels checks.

// maxWordGap is the largest gap between two deliveries inside one 64-slot
// window: the 62 slots between its first and its last.
const maxWordGap = wordBits - 2

// resolveKernel is resolveWindow's AVX-512 path: the same collision count
// and records, and the same largest gap. The leaves measure only the gaps
// across the window's start; a gap inside the window is measured by
// inWordGaps while the shard's running maximum is below maxWordGap, since
// no gap inside a window can exceed it.
func (sc *satFastScratch) resolveKernel(a adjacency, si, lo, hi, base int) {
	coll := sc.contend(a, lo, hi)
	elo, ehi := int(a.off[lo]), int(a.off[hi])
	multi := sc.multi[elo/8+si:]
	gap := max(sc.gaps[si], sc.deliver(a.nbr, multi, elo, ehi, base))
	if gap < maxWordGap {
		gap = sc.inWordGaps(a.nbr, multi, elo, ehi, gap)
	}
	sc.colls[si] += coll
	sc.gaps[si] = gap
}

// contend runs the contention pass over the receivers [lo, hi): the leaf
// on whole groups of eight, contendGo on the rest (all of them on a graph
// without links, where there is nothing to gather).
func (sc *satFastScratch) contend(a adjacency, lo, hi int) int {
	coll, mid := 0, lo
	if groups := (hi - lo) / 8; groups > 0 && len(a.nbr) > 0 {
		mid = lo + 8*groups
		if lo < 0 || len(a.off) <= mid || len(sc.rw) < mid || len(sc.x1) < mid || len(sc.tw) == 0 ||
			a.off[lo] < 0 || a.off[mid] > int64(len(a.nbr)) {
			panic("sim: contention pass out of range")
		}
		coll = contendKernel(&a.off[lo], &a.nbr[0], &sc.tw[0], &sc.rw[lo], &sc.x1[lo], groups)
	}
	return coll + sc.contendGo(a, mid, hi)
}

// contendGo is contendKernel in Go. For each receiver v of [lo, hi) a
// saturating two-bit counter over its neighbours' transmit words yields
// the slots with exactly one transmitting neighbour (once &^ many) and
// with two or more (many); x1[v] gets the first where v listens, and the
// second where it listens are counted as collisions.
func (sc *satFastScratch) contendGo(a adjacency, lo, hi int) int {
	tw, rw, x1 := sc.tw, sc.rw, sc.x1
	coll := 0
	for v := lo; v < hi; v++ {
		rx := rw[v]
		var once, many uint64
		if rx != 0 {
			for _, u := range a.nbr[a.off[v]:a.off[v+1]] {
				t := tw[u]
				many |= once & t
				once ^= t
			}
		}
		coll += bits.OnesCount64(rx & many)
		x1[v] = rx & once &^ many
	}
	return coll
}

// deliver runs the delivery pass over the v-major links [elo, ehi): the
// leaf on whole groups of eight, deliverGo on the rest, whose flags go to
// the byte after the leaf's.
func (sc *satFastScratch) deliver(nbr []int32, multi []uint8, elo, ehi, base int) int {
	gap := 0
	groups := (ehi - elo) / 8
	if groups > 0 {
		end := elo + 8*groups
		if elo < 0 || len(nbr) < end || len(sc.dst) < end || len(sc.cnt) < end || len(sc.first) < end ||
			len(sc.last) < end || len(multi) < groups || len(sc.x1) == 0 || len(sc.tw) == 0 {
			panic("sim: delivery pass out of range")
		}
		gap = deliverKernel(&sc.x1[0], &sc.tw[0], &nbr[elo], &sc.dst[elo],
			&sc.cnt[elo], &sc.first[elo], &sc.last[elo], &multi[0], groups, base)
	}
	return max(gap, sc.deliverGo(nbr, multi[groups:], elo+8*groups, ehi, base))
}

// deliverGo is deliverKernel in Go. Link e of [elo, ehi), from nbr[e] to
// dst[e], delivers in the window slots w = x1[dst[e]] & tw[nbr[e]]: if u
// is a slot's only transmitting neighbour of v and u transmits, u is the
// sender. A link that delivers adds the count to cnt[e] and records its
// last delivery, as a frame slot from base, in last[e], and its first in
// first[e] if it had none before. It returns the largest gap between a
// link's last delivery before the window and its first in it, and sets
// bit (e−elo)%8 of multi[(e−elo)/8] exactly for the links that deliver
// two or more times in the window.
func (sc *satFastScratch) deliverGo(nbr []int32, multi []uint8, elo, ehi, base int) int {
	x1, tw, dst := sc.x1, sc.tw, sc.dst
	cnt, first, last := sc.cnt, sc.first, sc.last
	gap := 0
	for e := elo; e < ehi; e++ {
		i := e - elo
		if i%8 == 0 {
			multi[i/8] = 0
		}
		w := x1[dst[e]] & tw[nbr[e]]
		if w == 0 {
			continue
		}
		b := int32(base + bits.TrailingZeros64(w))
		if cnt[e] == 0 {
			first[e] = b
		} else {
			gap = max(gap, int(b-last[e]-1))
		}
		c := bits.OnesCount64(w)
		cnt[e] += int32(c)
		last[e] = int32(base + wordBits - 1 - bits.LeadingZeros64(w))
		if c > 1 {
			multi[i/8] |= 1 << (i % 8)
		}
	}
	return gap
}

// inWordGaps returns the larger of gap and the gaps between consecutive
// deliveries inside the window on the links of [elo, ehi) that multi
// flags, as deliver left it. It stops as soon as the maximum reaches
// maxWordGap: no gap inside the window can raise it further.
func (sc *satFastScratch) inWordGaps(nbr []int32, multi []uint8, elo, ehi, gap int) int {
	x1, tw, dst := sc.x1, sc.tw, sc.dst
	for g, m := range multi[:(ehi-elo+7)/8] {
		for ; m != 0; m &= m - 1 {
			e := elo + 8*g + bits.TrailingZeros8(m)
			w := x1[dst[e]] & tw[nbr[e]]
			b := bits.TrailingZeros64(w)
			for w &= w - 1; w != 0; w &= w - 1 {
				next := bits.TrailingZeros64(w)
				gap = max(gap, next-b-1)
				b = next
			}
			if gap >= maxWordGap {
				return gap
			}
		}
	}
	return gap
}
