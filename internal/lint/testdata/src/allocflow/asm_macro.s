#include "textflag.h"

#define MIX(x) \
	MOVQ x, 0(SP) \
	CALL ·leafMix(SB)

// func macroMix(x uint64) uint64
TEXT ·macroMix(SB), $8-16
	MOVQ x+0(FP), AX
	MIX(AX)
	MOVQ 8(SP), AX
	MOVQ AX, ret+8(FP)
	RET
