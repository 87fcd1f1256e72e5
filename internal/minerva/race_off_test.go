//go:build !race

package minerva

// raceEnabled reports whether the race detector is compiled in: under
// it sync.Pool drops a random share of what is put back, so pooled
// working sets are rebuilt and exact allocation counts do not hold.
const raceEnabled = false
