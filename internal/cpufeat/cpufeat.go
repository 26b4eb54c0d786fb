// Package cpufeat reads, once at init, which of the module's assembly
// kernels this CPU and operating system can run. Each kernel needs its own
// set of AVX-512 extensions, and every set also needs the OS to save the
// opmask and ZMM register state on a context switch.
//
// The switches are read at call time by the package whose kernel they
// gate, so a test may clear one to run that package's Go fallback, and
// must restore it afterwards. Nothing sets a switch the probe left false:
// the kernel would fault on a CPU without its instructions.
package cpufeat

var (
	// ScanKernel reports AVX-512F and AVX-512DQ: stats.RNG.ScanAbove's
	// eight-draw block kernel needs VPMULLQ and KORTESTB.
	ScanKernel bool
	// TransposeKernel reports AVX-512F, AVX-512VBMI and GFNI: bitset's
	// 64×64 bit-block transpose needs VPERMB and VGF2P8AFFINEQB.
	TransposeKernel bool
	// ResolveKernel reports AVX-512F, AVX-512DQ, AVX-512CD, AVX-512VL and
	// AVX512_VPOPCNTDQ: the simulator's saturation window passes need
	// VPOPCNTQ, VPLZCNTQ, KMOVB and masked 256-bit integer operations.
	ResolveKernel bool
)

func init() { ScanKernel, TransposeKernel, ResolveKernel = probe() }
