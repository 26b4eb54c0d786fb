package cpufeat

// cpuid executes CPUID for the leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the register state the OS saves.
func xgetbv0() uint32

// CPUID leaf 7, subleaf 0, feature bits.
const (
	avx512F         = 1 << 16 // EBX
	avx512DQ        = 1 << 17 // EBX
	avx512CD        = 1 << 28 // EBX
	avx512VL        = 1 << 31 // EBX
	avx512VBMI      = 1 << 1  // ECX
	gfni            = 1 << 8  // ECX
	avx512VPOPCNTDQ = 1 << 14 // ECX
)

// probe reads the three feature sets. Each needs CPUID leaf 7; the OS to
// have enabled XGETBV (OSXSAVE, leaf 1 ECX bit 27) and to save the SSE,
// AVX, opmask and both ZMM state components (XCR0 bits 1, 2, 5, 6 and 7,
// mask 0xE6); and AVX-512F. The scan adds AVX-512DQ, the transpose
// AVX-512VBMI and GFNI, the resolve AVX-512DQ, CD, VL and VPOPCNTDQ.
func probe() (scan, transpose, resolve bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false, false, false
	}
	if xgetbv0()&0xE6 != 0xE6 {
		return false, false, false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	if ebx&avx512F == 0 {
		return false, false, false
	}
	scan = ebx&avx512DQ != 0
	transpose = ecx&(avx512VBMI|gfni) == avx512VBMI|gfni
	resolve = ebx&(avx512DQ|avx512CD|avx512VL) == avx512DQ|avx512CD|avx512VL && ecx&avx512VPOPCNTDQ != 0
	return scan, transpose, resolve
}
