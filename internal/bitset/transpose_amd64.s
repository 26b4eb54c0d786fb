#include "textflag.h"

// rowBlocks is step 1's VPERMB index: byte 8b+r of a result register is
// byte 8(7−r)+b of the source, so qword b holds byte b of each of the
// register's eight rows, last row first.
DATA rowBlocks<>+0x00(SB)/8, $0x0008101820283038
DATA rowBlocks<>+0x08(SB)/8, $0x0109111921293139
DATA rowBlocks<>+0x10(SB)/8, $0x020a121a222a323a
DATA rowBlocks<>+0x18(SB)/8, $0x030b131b232b333b
DATA rowBlocks<>+0x20(SB)/8, $0x040c141c242c343c
DATA rowBlocks<>+0x28(SB)/8, $0x050d151d252d353d
DATA rowBlocks<>+0x30(SB)/8, $0x060e161e262e363e
DATA rowBlocks<>+0x38(SB)/8, $0x070f171f272f373f
GLOBL rowBlocks<>(SB), RODATA|NOPTR, $64

// byteTranspose is step 4's VPERMB index: byte 8t+c of a result register
// is byte 8c+t of the source, the transpose of its 8×8 byte grid.
DATA byteTranspose<>+0x00(SB)/8, $0x3830282018100800
DATA byteTranspose<>+0x08(SB)/8, $0x3931292119110901
DATA byteTranspose<>+0x10(SB)/8, $0x3a322a221a120a02
DATA byteTranspose<>+0x18(SB)/8, $0x3b332b231b130b03
DATA byteTranspose<>+0x20(SB)/8, $0x3c342c241c140c04
DATA byteTranspose<>+0x28(SB)/8, $0x3d352d251d150d05
DATA byteTranspose<>+0x30(SB)/8, $0x3e362e261e160e06
DATA byteTranspose<>+0x38(SB)/8, $0x3f372f271f170f07
GLOBL byteTranspose<>(SB), RODATA|NOPTR, $64

// TRANSPOSE64 transposes the 64×64 bit block whose rows 8g…8g+7 are in
// Z0+g, leaving output words 8b…8b+7 in Z8+b. It clobbers Z0–Z15 and BX.
//
// 1. VPERMB turns each register's eight rows into eight 8×8 bit blocks,
//    rows reversed.
// 2. VGF2P8AFFINEQB transposes every 8×8 bit block: the block is the
//    affine matrix, and byte i of the broadcast operand, 1<<i, picks its
//    column i. Byte i of qword b of Z0+g now holds rows 8g…8g+7 of column
//    8b+i, which is byte g of output word 8b+i.
// 3. VPUNPCKLQDQ/VPUNPCKHQDQ, then two rounds of VSHUFI64X2, transpose
//    the 8×8 grid of qwords across the registers: qword b of every
//    register moves into Z8+b, in register order.
// 4. A second VPERMB transposes each of those registers' 8×8 byte grids,
//    so qword t of Z8+b is output word 8b+t.
#define TRANSPOSE64 \
	VMOVDQU64      rowBlocks<>(SB), Z8; \
	VPERMB         Z0, Z8, Z0; \
	VPERMB         Z1, Z8, Z1; \
	VPERMB         Z2, Z8, Z2; \
	VPERMB         Z3, Z8, Z3; \
	VPERMB         Z4, Z8, Z4; \
	VPERMB         Z5, Z8, Z5; \
	VPERMB         Z6, Z8, Z6; \
	VPERMB         Z7, Z8, Z7; \
	MOVQ           $0x8040201008040201, BX; \
	VPBROADCASTQ   BX, Z9; \
	VGF2P8AFFINEQB $0, Z0, Z9, Z0; \
	VGF2P8AFFINEQB $0, Z1, Z9, Z1; \
	VGF2P8AFFINEQB $0, Z2, Z9, Z2; \
	VGF2P8AFFINEQB $0, Z3, Z9, Z3; \
	VGF2P8AFFINEQB $0, Z4, Z9, Z4; \
	VGF2P8AFFINEQB $0, Z5, Z9, Z5; \
	VGF2P8AFFINEQB $0, Z6, Z9, Z6; \
	VGF2P8AFFINEQB $0, Z7, Z9, Z7; \
	VPUNPCKLQDQ    Z1, Z0, Z8; \
	VPUNPCKHQDQ    Z1, Z0, Z9; \
	VPUNPCKLQDQ    Z3, Z2, Z10; \
	VPUNPCKHQDQ    Z3, Z2, Z11; \
	VPUNPCKLQDQ    Z5, Z4, Z12; \
	VPUNPCKHQDQ    Z5, Z4, Z13; \
	VPUNPCKLQDQ    Z7, Z6, Z14; \
	VPUNPCKHQDQ    Z7, Z6, Z15; \
	VSHUFI64X2     $0x88, Z10, Z8, Z0; \
	VSHUFI64X2     $0x88, Z11, Z9, Z1; \
	VSHUFI64X2     $0xdd, Z10, Z8, Z2; \
	VSHUFI64X2     $0xdd, Z11, Z9, Z3; \
	VSHUFI64X2     $0x88, Z14, Z12, Z4; \
	VSHUFI64X2     $0x88, Z15, Z13, Z5; \
	VSHUFI64X2     $0xdd, Z14, Z12, Z6; \
	VSHUFI64X2     $0xdd, Z15, Z13, Z7; \
	VSHUFI64X2     $0x88, Z4, Z0, Z8; \
	VSHUFI64X2     $0x88, Z5, Z1, Z9; \
	VSHUFI64X2     $0x88, Z6, Z2, Z10; \
	VSHUFI64X2     $0x88, Z7, Z3, Z11; \
	VSHUFI64X2     $0xdd, Z4, Z0, Z12; \
	VSHUFI64X2     $0xdd, Z5, Z1, Z13; \
	VSHUFI64X2     $0xdd, Z6, Z2, Z14; \
	VSHUFI64X2     $0xdd, Z7, Z3, Z15; \
	VMOVDQU64      byteTranspose<>(SB), Z0; \
	VPERMB         Z8, Z0, Z8; \
	VPERMB         Z9, Z0, Z9; \
	VPERMB         Z10, Z0, Z10; \
	VPERMB         Z11, Z0, Z11; \
	VPERMB         Z12, Z0, Z12; \
	VPERMB         Z13, Z0, Z13; \
	VPERMB         Z14, Z0, Z14; \
	VPERMB         Z15, Z0, Z15

// STORE64 writes output words 0…63 from Z8–Z15 to the 64 words at r.
#define STORE64(r) \
	VMOVDQU64 Z8, 0x000(r); \
	VMOVDQU64 Z9, 0x040(r); \
	VMOVDQU64 Z10, 0x080(r); \
	VMOVDQU64 Z11, 0x0c0(r); \
	VMOVDQU64 Z12, 0x100(r); \
	VMOVDQU64 Z13, 0x140(r); \
	VMOVDQU64 Z14, 0x180(r); \
	VMOVDQU64 Z15, 0x1c0(r)

// GATHER8(g, idx, out) loads word cw of rows 8g…8g+7 into out, Z0+g:
// idx, Z8+g, takes the rows' addresses from the pointer array at AX, and
// the gather adds the byte offset 8·cw in SI to each. K1 takes byte g of
// the row mask in DX, so a lane past the last row reads nothing and
// keeps out's zero.
#define GATHER8(g, idx, out) \
	MOVQ       DX, R8; \
	SHRQ       $(8*g), R8; \
	KMOVW      R8, K1; \
	VMOVDQU64  (64*g)(AX), idx; \
	VPXORQ     out, out, out; \
	VPGATHERQQ (SI)(idx*1), K1, out

// Both leaves use only Z0–Z15 and end with VZEROUPPER, so no AVX-512
// state stays in use after them: ZMM16–31 would stay live past a
// VZEROUPPER, and the OS would save and restore them on every signal
// and context switch. Z15 is free: the call back into Go zeroes it again.

// func transpose64Kernel(a *[64]uint64)
TEXT ·transpose64Kernel(SB), NOSPLIT, $0-8
	MOVQ      a+0(FP), AX
	VMOVDQU64 0x000(AX), Z0
	VMOVDQU64 0x040(AX), Z1
	VMOVDQU64 0x080(AX), Z2
	VMOVDQU64 0x0c0(AX), Z3
	VMOVDQU64 0x100(AX), Z4
	VMOVDQU64 0x140(AX), Z5
	VMOVDQU64 0x180(AX), Z6
	VMOVDQU64 0x1c0(AX), Z7
	TRANSPOSE64
	STORE64(AX)
	VZEROUPPER
	RET

// func transposeWindowKernel(rows *[64]*uint64, nrows int, dst *uint64, blocks int)
//
// Per column word cw < blocks: eight masked gathers fetch word cw of every
// row, TRANSPOSE64 turns the block, and eight stores write it to
// dst[64cw : 64cw+64]. DX is the row mask, bit k set for k < nrows; SI
// is the byte offset 8·cw and DI walks dst 512 bytes a block.
TEXT ·transposeWindowKernel(SB), NOSPLIT, $0-32
	MOVQ  rows+0(FP), AX
	MOVQ  nrows+8(FP), CX
	MOVQ  dst+16(FP), DI
	MOVQ  blocks+24(FP), R9
	TESTQ R9, R9
	JLE   done

	// DX = 1<<nrows − 1, and all ones for 64 rows, where SHLQ would shift
	// by 0.
	MOVQ  $-1, DX
	CMPQ  CX, $64
	JGE   masked
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX

masked:
	XORQ SI, SI

block:
	GATHER8(0, Z8, Z0)
	GATHER8(1, Z9, Z1)
	GATHER8(2, Z10, Z2)
	GATHER8(3, Z11, Z3)
	GATHER8(4, Z12, Z4)
	GATHER8(5, Z13, Z5)
	GATHER8(6, Z14, Z6)
	GATHER8(7, Z15, Z7)
	TRANSPOSE64
	STORE64(DI)
	ADDQ $8, SI
	ADDQ $512, DI
	DECQ R9
	JNZ  block
	VZEROUPPER

done:
	RET
