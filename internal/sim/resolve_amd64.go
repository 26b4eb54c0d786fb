package sim

// contendKernel is satFastScratch.contendGo in AVX-512 assembly
// (resolve_amd64.s) over 8·groups receivers: off points at off[lo], rw
// and x1 at the receivers' words, nbr and tw at their rows' starts. Lane
// i of an iteration is receiver lo+8g+i; while any lane has a neighbour
// left, masked gathers fetch the neighbours' ids and transmit words, and
// one ternary-logic step and one XOR advance the two-bit counter. It
// returns the (receiver, slot) collisions and writes every receiver's
// x1. The caller checks the rows' lengths and that off[lo…lo+8·groups]
// stays inside nbr; the rows' neighbour ids must index tw. It runs only
// where cpufeat.ResolveKernel says the CPU and the OS support it.
//
//go:noescape
func contendKernel(off *int64, nbr *int32, tw, rw, x1 *uint64, groups int) (coll int)

// deliverKernel is satFastScratch.deliverGo in AVX-512 assembly
// (resolve_amd64.s) over 8·groups links: nbr, dst, cnt, first and last
// point at link elo, multi at the group's flag byte, x1 and tw at their
// rows' starts. Lane i of an iteration is link elo+8g+i; gathers fetch
// x1[dst] and tw[nbr], VPOPCNTQ and VPLZCNTQ read the count and the last
// and first delivery of w = x1 & tw, and masked blends update the
// records. It returns the largest gap across the window's start, and
// writes one flag byte per iteration. The caller checks the rows'
// lengths; dst and nbr must index x1 and tw. It runs only where
// cpufeat.ResolveKernel says the CPU and the OS support it.
//
//go:noescape
func deliverKernel(x1, tw *uint64, nbr, dst, cnt, first, last *int32, multi *uint8, groups, base int) (gap int)
