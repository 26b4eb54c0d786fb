// Package buildtags has one function per architecture: the loader must
// read only the files the go command would build here, or arch is
// declared twice.
package buildtags

func use() int { return arch() }
