//go:build !amd64

package bitset

// transpose64Kernel is never called off amd64, where
// cpufeat.TransposeKernel is false; it runs the Go loop all the same.
func transpose64Kernel(a *[wordBits]uint64) { transpose64(a) }
