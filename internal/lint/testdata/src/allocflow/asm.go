package allocflow

// Body-less functions are implemented in the package's assembly. A call to
// one is allocation-free only when its TEXT block makes no call: a leaf
// cannot reach the allocator. Every other body-less callee is judged like
// a call that leaves the module.

// leafMix's block in asm.s calls nothing.
func leafMix(x uint64) uint64

// callingMix's block in asm.s calls another function.
func callingMix(x uint64) uint64

// tailMix's block in asm.s ends in a jump to another symbol.
func tailMix(x uint64) uint64

// macroMix's block in asm_macro.s expands a macro that calls.
func macroMix(x uint64) uint64

// missingMix has no TEXT block in any .s file of the package.
func missingMix(x uint64) uint64

// mixTwice reaches only the leaf, so its summary stays allocation-free.
func mixTwice(x uint64) uint64 {
	return leafMix(leafMix(x))
}

// hotMix calls each kind on its warm path.
//
//ttdc:hotpath fixture warm path
func hotMix(x uint64) uint64 {
	x = leafMix(x)
	x = mixTwice(x)
	x = callingMix(x)    // want `call to allocflow\.callingMix allocates in a //ttdc:hotpath function`
	x = tailMix(x)       // want `call to allocflow\.tailMix allocates`
	x = macroMix(x)      // want `call to allocflow\.macroMix allocates`
	return missingMix(x) // want `call to allocflow\.missingMix allocates`
}
