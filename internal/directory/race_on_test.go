//go:build race

package directory

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
