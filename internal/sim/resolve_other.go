//go:build !amd64

package sim

// contendKernel and deliverKernel are never called off amd64, where
// cpufeat.ResolveKernel is false; without their assembly they would
// have nothing to run.
func contendKernel(off *int64, nbr *int32, tw, rw, x1 *uint64, groups int) (coll int) {
	panic("sim: contention kernel called off amd64")
}

func deliverKernel(x1, tw *uint64, nbr, dst, cnt, first, last *int32, multi *uint8, groups, base int) (gap int) {
	panic("sim: delivery kernel called off amd64")
}
