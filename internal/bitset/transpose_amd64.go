package bitset

// transpose64Kernel is transpose64 in AVX-512 assembly
// (transpose_amd64.s): the block goes through eight ZMM registers in a
// fixed sequence of byte permutes, GF(2) affine transforms and qword
// shuffles, with no loop and no branch. It runs only where
// cpufeat.TransposeKernel says the CPU and the OS support it.
//
//go:noescape
func transpose64Kernel(a *[wordBits]uint64)
