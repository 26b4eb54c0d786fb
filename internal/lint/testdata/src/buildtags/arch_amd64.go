package buildtags

func arch() int { return 1 }
