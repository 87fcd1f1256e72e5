//go:build race

package minerva

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
