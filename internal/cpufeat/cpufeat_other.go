//go:build !amd64

package cpufeat

// probe reports neither set off amd64, where the module has no assembly.
func probe() (scan, transpose bool) { return false, false }
