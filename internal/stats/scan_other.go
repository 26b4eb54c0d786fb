//go:build !amd64

package stats

// scanBlocks passes no block off amd64, so ScanAbove's Go loop would
// still finish any scan it were handed.
func scanBlocks(state uint64, blocks int, threshold uint64) int { return 0 }
