//go:build !amd64

package buildtags

func arch() int { return 2 }
