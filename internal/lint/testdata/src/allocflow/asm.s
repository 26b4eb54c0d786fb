#include "textflag.h"

// func leafMix(x uint64) uint64
TEXT ·leafMix(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), AX
	MOVQ AX, BX
	SHRQ $30, BX
	XORQ BX, AX
loop:
	DECQ BX
	JNZ  loop
	MOVQ AX, ret+8(FP)
	RET

// func callingMix(x uint64) uint64
TEXT ·callingMix(SB), $8-16
	MOVQ x+0(FP), AX
	MOVQ AX, 0(SP)
	CALL ·leafMix(SB)
	MOVQ 8(SP), AX
	MOVQ AX, ret+8(FP)
	RET

// func tailMix(x uint64) uint64
TEXT ·tailMix(SB), NOSPLIT, $0-16
	JMP ·leafMix(SB)
