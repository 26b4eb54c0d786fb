package stats

// scanBlocks is ScanAbove's AVX-512 block kernel (scan_amd64.s). Block b
// holds the eight draws after state + 8b·golden, that is the outputs
// mix64(state + (8b+1)·golden) … mix64(state + (8b+8)·golden), which one
// iteration mixes and compares at once. It returns how many of the first
// blocks blocks hold no output above threshold: blocks itself when none
// does. It reads nothing but its arguments and keeps no state, so the
// caller advances the generator; it runs only where cpufeat.ScanKernel
// says the CPU and the OS support it.
func scanBlocks(state uint64, blocks int, threshold uint64) int
