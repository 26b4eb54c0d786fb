#include "textflag.h"

// laneSteps holds k·golden for k = 1…8: added to a broadcast state, it
// gives the states of the next eight draws, and its last lane, 8·golden,
// advances all eight lanes by one block.
DATA laneSteps<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA laneSteps<>+0x08(SB)/8, $0x3c6ef372fe94f82a
DATA laneSteps<>+0x10(SB)/8, $0xdaa66d2c7ddf743f
DATA laneSteps<>+0x18(SB)/8, $0x78dde6e5fd29f054
DATA laneSteps<>+0x20(SB)/8, $0x1715609f7c746c69
DATA laneSteps<>+0x28(SB)/8, $0xb54cda58fbbee87e
DATA laneSteps<>+0x30(SB)/8, $0x538454127b096493
DATA laneSteps<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneSteps<>(SB), RODATA|NOPTR, $64

// func scanBlocks(state uint64, blocks int, threshold uint64) int
//
// Z0 holds the eight lane states, Z1 the block step, Z2 and Z3 mix64's
// multipliers, Z4 the threshold; each iteration mixes Z0 into Z5 and
// compares it with the threshold unsigned (predicate 6, NLE: lane > t).
TEXT ·scanBlocks(SB), NOSPLIT, $0-32
	MOVQ  state+0(FP), AX
	MOVQ  blocks+8(FP), BX
	MOVQ  threshold+16(FP), DX
	XORQ  CX, CX
	TESTQ BX, BX
	JLE   ret

	VPBROADCASTQ AX, Z0
	VPADDQ       laneSteps<>(SB), Z0, Z0
	VPBROADCASTQ laneSteps<>+0x38(SB), Z1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z2
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z3
	VPBROADCASTQ DX, Z4

loop:
	VPSRLQ   $30, Z0, Z5
	VPXORQ   Z0, Z5, Z5
	VPMULLQ  Z2, Z5, Z5
	VPSRLQ   $27, Z5, Z6
	VPXORQ   Z5, Z6, Z6
	VPMULLQ  Z3, Z6, Z6
	VPSRLQ   $31, Z6, Z5
	VPXORQ   Z6, Z5, Z5
	VPCMPUQ  $6, Z4, Z5, K1
	KORTESTB K1, K1
	JNZ      found
	VPADDQ   Z1, Z0, Z0
	INCQ     CX
	CMPQ     CX, BX
	JLT      loop

found:
	VZEROUPPER

ret:
	MOVQ CX, ret+24(FP)
	RET
