//go:build !race

package directory

// raceEnabled reports whether the race detector is compiled in: under
// it sync.Pool drops a random share of what is put back, so a call can
// pay for a frame buffer the pool would otherwise have handed back, and
// exact allocation comparisons do not hold.
const raceEnabled = false
