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

// func transpose64Kernel(a *[64]uint64)
//
// Rows 8g…8g+7 load into Z0+g. After steps 1 and 2, byte i of qword b of
// Z0+g holds rows 8g…8g+7 of column 8b+i, which is byte g of output word
// 8b+i. Step 3 moves qword b of every register into Z8+b, in register
// order; step 4 then transposes each of those registers' 8×8 byte grids,
// so qword t of Z8+b is output word 8b+t. Only Z0–Z15 are used, so the
// VZEROUPPER at the end leaves no AVX-512 state in use: ZMM16–31 would
// stay live after it, and the OS would save and restore them on every
// signal and context switch. Z15 is free here: the call back into Go
// zeroes it again.
TEXT ·transpose64Kernel(SB), NOSPLIT, $0-8
	MOVQ      a+0(FP), AX
	VMOVDQU64 rowBlocks<>(SB), Z8

	// 1. Eight rows per register into eight 8×8 bit blocks, rows reversed.
	VPERMB 0x000(AX), Z8, Z0
	VPERMB 0x040(AX), Z8, Z1
	VPERMB 0x080(AX), Z8, Z2
	VPERMB 0x0c0(AX), Z8, Z3
	VPERMB 0x100(AX), Z8, Z4
	VPERMB 0x140(AX), Z8, Z5
	VPERMB 0x180(AX), Z8, Z6
	VPERMB 0x1c0(AX), Z8, Z7

	// 2. Transpose every 8×8 bit block: the block is the affine matrix,
	// and byte i of the broadcast operand, 1<<i, picks its column i.
	MOVQ           $0x8040201008040201, BX
	VPBROADCASTQ   BX, Z9
	VGF2P8AFFINEQB $0, Z0, Z9, Z0
	VGF2P8AFFINEQB $0, Z1, Z9, Z1
	VGF2P8AFFINEQB $0, Z2, Z9, Z2
	VGF2P8AFFINEQB $0, Z3, Z9, Z3
	VGF2P8AFFINEQB $0, Z4, Z9, Z4
	VGF2P8AFFINEQB $0, Z5, Z9, Z5
	VGF2P8AFFINEQB $0, Z6, Z9, Z6
	VGF2P8AFFINEQB $0, Z7, Z9, Z7

	// 3. Transpose the 8×8 grid of qwords across the registers:
	// interleave pairs within 128-bit lanes, then gather lanes twice.
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPUNPCKLQDQ Z3, Z2, Z10
	VPUNPCKHQDQ Z3, Z2, Z11
	VPUNPCKLQDQ Z5, Z4, Z12
	VPUNPCKHQDQ Z5, Z4, Z13
	VPUNPCKLQDQ Z7, Z6, Z14
	VPUNPCKHQDQ Z7, Z6, Z15

	VSHUFI64X2 $0x88, Z10, Z8, Z0
	VSHUFI64X2 $0x88, Z11, Z9, Z1
	VSHUFI64X2 $0xdd, Z10, Z8, Z2
	VSHUFI64X2 $0xdd, Z11, Z9, Z3
	VSHUFI64X2 $0x88, Z14, Z12, Z4
	VSHUFI64X2 $0x88, Z15, Z13, Z5
	VSHUFI64X2 $0xdd, Z14, Z12, Z6
	VSHUFI64X2 $0xdd, Z15, Z13, Z7

	VSHUFI64X2 $0x88, Z4, Z0, Z8
	VSHUFI64X2 $0x88, Z5, Z1, Z9
	VSHUFI64X2 $0x88, Z6, Z2, Z10
	VSHUFI64X2 $0x88, Z7, Z3, Z11
	VSHUFI64X2 $0xdd, Z4, Z0, Z12
	VSHUFI64X2 $0xdd, Z5, Z1, Z13
	VSHUFI64X2 $0xdd, Z6, Z2, Z14
	VSHUFI64X2 $0xdd, Z7, Z3, Z15

	// 4. Transpose the bytes inside each register and store.
	VMOVDQU64 byteTranspose<>(SB), Z0
	VPERMB    Z8, Z0, Z8
	VPERMB    Z9, Z0, Z9
	VPERMB    Z10, Z0, Z10
	VPERMB    Z11, Z0, Z11
	VPERMB    Z12, Z0, Z12
	VPERMB    Z13, Z0, Z13
	VPERMB    Z14, Z0, Z14
	VPERMB    Z15, Z0, Z15

	VMOVDQU64 Z8, 0x000(AX)
	VMOVDQU64 Z9, 0x040(AX)
	VMOVDQU64 Z10, 0x080(AX)
	VMOVDQU64 Z11, 0x0c0(AX)
	VMOVDQU64 Z12, 0x100(AX)
	VMOVDQU64 Z13, 0x140(AX)
	VMOVDQU64 Z14, 0x180(AX)
	VMOVDQU64 Z15, 0x1c0(AX)
	VZEROUPPER
	RET
