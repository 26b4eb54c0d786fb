#include "textflag.h"

// Both leaves use only Z0–Z15 and end with VZEROUPPER, so no AVX-512
// state stays in use after them: ZMM16–31 would stay live past a
// VZEROUPPER, and the OS would save and restore them on every signal
// and context switch. Z15 is free: the call back into Go zeroes it again.

// func contendKernel(off *int64, nbr *int32, tw, rw, x1 *uint64, groups int) (coll int)
//
// Per group of eight receivers: Z0 holds each lane's next link id, Z1
// its end, Z2 its receive word, Z3 and Z4 the counter's once and many
// words; K1 marks the lanes that listen and still have a neighbour. Z15
// sums the collisions per lane and Z14 is −1 in every lane.
TEXT ·contendKernel(SB), NOSPLIT, $0-56
	MOVQ  off+0(FP), AX
	MOVQ  nbr+8(FP), BX
	MOVQ  tw+16(FP), CX
	MOVQ  rw+24(FP), DX
	MOVQ  x1+32(FP), SI
	MOVQ  groups+40(FP), DI
	XORQ  R8, R8
	TESTQ DI, DI
	JLE   contended

	VPXORQ     Z15, Z15, Z15
	VPTERNLOGQ $0xff, Z14, Z14, Z14

group:
	VMOVDQU64 (AX), Z0
	VMOVDQU64 8(AX), Z1
	VMOVDQU64 (DX), Z2
	VPXORQ    Z3, Z3, Z3
	VPXORQ    Z4, Z4, Z4
	VPTESTMQ  Z2, Z2, K2
	VPCMPQ    $1, Z1, Z0, K2, K1

neighbour:
	KORTESTB K1, K1
	JZ       resolved

	// Gathers clear their mask, so each takes a copy of K1; lanes off
	// the mask read nothing and keep Z6's zero.
	KMOVB      K1, K3
	VPGATHERQD (BX)(Z0*4), K3, Y5
	KMOVB      K1, K3
	VPXORQ     Z6, Z6, Z6
	VPGATHERDQ (CX)(Y5*8), K3, Z6

	// many |= once & t, then once ^= t.
	VPTERNLOGQ $0xf8, Z6, Z3, Z4
	VPXORQ     Z6, Z3, Z3
	VPSUBQ     Z14, Z0, Z0
	VPCMPQ     $1, Z1, Z0, K1, K1
	JMP        neighbour

resolved:
	// coll += popcount(rx & many); x1 = rx & once &^ many.
	VPANDQ     Z4, Z2, Z7
	VPOPCNTQ   Z7, Z7
	VPADDQ     Z7, Z15, Z15
	VPTERNLOGQ $0x40, Z4, Z3, Z2
	VMOVDQU64  Z2, (SI)
	ADDQ       $64, AX
	ADDQ       $64, DX
	ADDQ       $64, SI
	DECQ       DI
	JNZ        group

	VEXTRACTI64X4 $1, Z15, Y0
	VPADDQ        Y0, Y15, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPSHUFD       $0x4e, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, R8
	VZEROUPPER

contended:
	MOVQ R8, coll+48(FP)
	RET

// func deliverKernel(x1, tw *uint64, nbr, dst, cnt, first, last *int32, multi *uint8, groups, base int) (gap int)
//
// Per group of eight links, R9 bytes into the link rows: Z2 holds w, Y4
// the counts, Y5 and Y6 the last and first delivery slots, Y7–Y9 the
// records. K1 marks the lanes that deliver, K3 those of them with an
// earlier delivery and K4 those without. Y13 keeps each lane's largest
// gap across the window's start, Y14 is base+63 in every lane, Y12 −1
// and Z11 1 per qword.
TEXT ·deliverKernel(SB), NOSPLIT, $0-88
	MOVQ  x1+0(FP), R10
	MOVQ  tw+8(FP), R11
	MOVQ  nbr+16(FP), AX
	MOVQ  dst+24(FP), BX
	MOVQ  cnt+32(FP), CX
	MOVQ  first+40(FP), DX
	MOVQ  last+48(FP), SI
	MOVQ  multi+56(FP), DI
	MOVQ  groups+64(FP), R12
	MOVQ  base+72(FP), R13
	XORQ  R8, R8
	TESTQ R12, R12
	JLE   delivered

	XORQ         R9, R9
	ADDQ         $63, R13
	VPBROADCASTD R13, Y14
	VPXORQ       Z13, Z13, Z13
	VPTERNLOGQ   $0xff, Z12, Z12, Z12
	VPSRLQ       $63, Z12, Z11

link:
	// w = x1[dst[e]] & tw[nbr[e]].
	VMOVDQU    (AX)(R9*1), Y0
	VMOVDQU    (BX)(R9*1), Y1
	KXNORB     K1, K1, K1
	VPGATHERDQ (R10)(Y1*8), K1, Z2
	KXNORB     K1, K1, K1
	VPGATHERDQ (R11)(Y0*8), K1, Z3
	VPANDQ     Z3, Z2, Z2
	VPTESTMQ   Z2, Z2, K1

	// Counts, and the flag byte of the lanes with two or more.
	VPOPCNTQ Z2, Z4
	VPCMPUQ  $6, Z11, Z4, K2
	KMOVB    K2, (DI)
	VPMOVQD  Z4, Y4

	// last = base+63 − lzcnt(w), first = base+63 − lzcnt(w & −w).
	VPLZCNTQ Z2, Z5
	VPMOVQD  Z5, Y5
	VPSUBD   Y5, Y14, Y5
	VPXORQ   Z6, Z6, Z6
	VPSUBQ   Z2, Z6, Z6
	VPANDQ   Z2, Z6, Z6
	VPLZCNTQ Z6, Z6
	VPMOVQD  Z6, Y6
	VPSUBD   Y6, Y14, Y6

	// The records: a gap from the last delivery before the window where
	// there is one, the first delivery where there is none, the last and
	// the count wherever the lane delivers.
	VMOVDQU   (CX)(R9*1), Y7
	VMOVDQU   (DX)(R9*1), Y8
	VMOVDQU   (SI)(R9*1), Y9
	VPTESTMD  Y7, Y7, K1, K3
	VPTESTNMD Y7, Y7, K1, K4
	VPSUBD    Y9, Y6, Y10
	VPADDD    Y12, Y10, Y10
	VPMAXSD   Y10, Y13, K3, Y13
	VPBLENDMD Y6, Y8, K4, Y8
	VPBLENDMD Y5, Y9, K1, Y9
	VPADDD    Y4, Y7, Y7
	VMOVDQU   Y7, (CX)(R9*1)
	VMOVDQU   Y8, (DX)(R9*1)
	VMOVDQU   Y9, (SI)(R9*1)
	ADDQ      $32, R9
	INCQ      DI
	DECQ      R12
	JNZ       link

	VEXTRACTI128 $1, Y13, X0
	VPMAXSD      X0, X13, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXSD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXSD      X1, X0, X0
	VMOVD        X0, R8
	VZEROUPPER

delivered:
	MOVQ R8, gap+80(FP)
	RET
