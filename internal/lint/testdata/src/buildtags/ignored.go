//go:build ignore

package buildtags

func arch() string { return "never built" }
