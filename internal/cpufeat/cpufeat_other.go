//go:build !amd64

package cpufeat

// probe reports no set off amd64, where the module has no assembly.
func probe() (scan, transpose, resolve bool) { return false, false, false }
