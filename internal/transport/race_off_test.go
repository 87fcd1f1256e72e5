//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in: under
// it sync.Pool drops a random share of what is put back, so the
// pooled Encoder and Decoder allocate and exact allocation counts do
// not hold.
const raceEnabled = false
