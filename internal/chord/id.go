// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001) that MINERVA's directory is layered on (paper
// Section 4): consistent hashing on a ring of 64-bit identifiers, finger
// tables for O(log n) lookups, successor lists for failure resilience,
// and the join/stabilize/notify/fix-fingers maintenance protocol.
//
// The directory partitions the term space over the ring: the peer whose
// node succeeds hash(term) maintains the PeerList of all posts for that
// term. Chord itself is term-agnostic — it just maps keys to live nodes.
package chord

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// M is the identifier width in bits and the finger-table size.
const M = 64

// ID is a position on the Chord ring, the top 64 bits of a SHA-1 digest.
// All arithmetic is modulo 2^64, which uint64 provides natively.
type ID uint64

// HashKey maps a directory key (an index term) onto the ring.
func HashKey(key string) ID { return hashPrefixed("key:", key) }

// HashAddr maps a node address onto the ring. The "node:" prefix keeps
// node IDs and key IDs from colliding systematically for equal strings.
func HashAddr(addr string) ID { return hashPrefixed("node:", addr) }

// hashPrefixed is the top 64 bits of SHA-1(prefix + s), hashed from a
// stack buffer so that a key or address of up to ~120 bytes costs no
// allocation (it is hashed once per published post and per lookup).
func hashPrefixed(prefix, s string) ID {
	var buf [128]byte
	sum := sha1.Sum(append(append(buf[:0], prefix...), s...))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// String renders the ID in hex.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// between reports whether x ∈ (a, b) on the ring, exclusive on both
// sides, with wraparound. The degenerate ring of one node (a == b) makes
// the whole circle the interval.
func between(a, x, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// betweenIncl reports whether x ∈ (a, b] on the ring — the successor
// ownership test: node b owns every key in (predecessor, b].
func betweenIncl(a, x, b ID) bool {
	if a == b {
		return true
	}
	return between(a, x, b) || x == b
}

// InInterval reports whether x ∈ (a, b] on the ring, the ownership test
// exported for services (like the directory) that partition their data
// by ring interval.
func InInterval(a, x, b ID) bool { return betweenIncl(a, x, b) }

// fingerStart returns the start of the i-th finger interval of node n:
// n + 2^i mod 2^M, for i in [0, M).
func fingerStart(n ID, i int) ID {
	return n + ID(1)<<uint(i)
}

// NodeRef is the wire representation of a node: its ring position and
// transport address.
type NodeRef struct {
	// ID is the node's ring position (always HashAddr(Addr)).
	ID ID
	// Addr is the node's transport address.
	Addr string
}

// IsZero reports an unset reference.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// String renders the reference for diagnostics.
func (r NodeRef) String() string {
	if r.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s@%s", r.ID, r.Addr)
}
