//go:build !race

package router

// raceEnabled reports whether the race detector is instrumenting this
// test binary (it allocates behind the scenes, so allocation counts
// mean nothing under it).
const raceEnabled = false
