package stats

// scanBlocks is ScanAbove's AVX-512 block kernel (scan_amd64.s). Block b
// holds the eight draws after state + 8b·golden, that is the outputs
// mix64(state + (8b+1)·golden) … mix64(state + (8b+8)·golden), which one
// iteration mixes and compares at once. It returns how many of the first
// blocks blocks hold no output above threshold: blocks itself when none
// does. It reads nothing but its arguments and keeps no state, so the
// caller advances the generator; it runs only where cpuHasBlockKernel
// says the CPU and the OS support it.
func scanBlocks(state uint64, blocks int, threshold uint64) int

// cpuid executes CPUID for the leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the register state the OS saves.
func xgetbv0() uint32

// cpuHasBlockKernel reports whether scanBlocks can run here: CPUID has
// leaf 7; the OS has enabled XGETBV (OSXSAVE, leaf 1 ECX bit 27) and
// saves the SSE, AVX, opmask and both ZMM state components (XCR0 bits 1,
// 2, 5, 6 and 7, mask 0xE6); and leaf 7 lists AVX-512F and AVX-512DQ
// (EBX bits 16 and 17), which VPMULLQ and KORTESTB need.
func cpuHasBlockKernel() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xgetbv0()&0xE6 != 0xE6 {
		return false
	}
	const avx512 = 1<<16 | 1<<17 // AVX-512F, AVX-512DQ
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512 == avx512
}
