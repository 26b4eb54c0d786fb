package bitset

// transpose64Kernel is transpose64 in AVX-512 assembly
// (transpose_amd64.s): the block goes through eight ZMM registers in a
// fixed sequence of byte permutes, GF(2) affine transforms and qword
// shuffles, with no loop and no branch. It runs only where
// cpufeat.TransposeKernel says the CPU and the OS support it.
//
//go:noescape
func transpose64Kernel(a *[wordBits]uint64)

// transposeWindowKernel is TransposeWindow's whole blocks in AVX-512
// assembly (transpose_amd64.s): for every column word cw < blocks, eight
// masked gathers fetch word cw of rows[0…nrows), the steps of
// transpose64Kernel turn the block in registers, and eight stores write
// it to dst[64cw : 64cw+64]. Lanes of rows nrows and up are masked off,
// never read, and give zero bits. The caller checks that every one of
// the nrows rows holds at least blocks words and that dst holds
// 64·blocks. It runs only where cpufeat.TransposeKernel says the CPU and
// the OS support it.
//
//go:noescape
func transposeWindowKernel(rows *[wordBits]*uint64, nrows int, dst *uint64, blocks int)
