// Package synopsis implements the three compact set synopses studied in
// "IQN Routing: Integrating Quality and Novelty in P2P Querying and
// Ranking" (Michel, Bender, Triantafillou, Weikum; EDBT 2006):
//
//   - Bloom filters (Bloom 1970),
//   - min-wise independent permutations, MIPs (Broder et al. 1998/2000),
//   - hash sketches (Flajolet/Martin 1985, PCSA-style).
//
// Every peer in a MINERVA-style P2P search network builds one synopsis per
// index term over the document IDs it holds for that term and publishes it
// to the DHT directory. The IQN router then estimates, from synopses alone,
//
//	Resemblance(A,B) = |A∩B| / |A∪B|
//	Containment(A,B) = |A∩B| / |B|
//	Novelty(B|A)     = |B − (A∩B)|
//
// and aggregates synopses (union, and where supported intersection) without
// ever shipping the underlying ID sets.
//
// All synopses marshal to a compact, self-describing binary form so they
// can be stored in the directory and exchanged between peers; Unmarshal
// reconstructs the concrete type from the leading kind byte.
package synopsis

import (
	"errors"
	"fmt"
)

// Kind identifies the concrete synopsis family.
type Kind uint8

// The synopsis families studied in the paper.
const (
	// KindBloom is a Bloom filter bit vector.
	KindBloom Kind = iota + 1
	// KindMIPs is a min-wise independent permutations vector.
	KindMIPs
	// KindHashSketch is a Flajolet-Martin PCSA hash sketch.
	KindHashSketch
	// KindSuperLogLog is a Durand-Flajolet super-LogLog counting sketch,
	// the space-optimized hash-sketch refinement the paper cites
	// (Section 3.2, [16]).
	KindSuperLogLog
)

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBloom:
		return "bloom"
	case KindMIPs:
		return "mips"
	case KindHashSketch:
		return "hashsketch"
	case KindSuperLogLog:
		return "superloglog"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a name produced by Kind.String back into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "bloom", "bf":
		return KindBloom, nil
	case "mips", "mip":
		return KindMIPs, nil
	case "hashsketch", "hs":
		return KindHashSketch, nil
	case "superloglog", "sll":
		return KindSuperLogLog, nil
	}
	return 0, fmt.Errorf("synopsis: unknown kind %q", s)
}

// Errors shared by all synopsis implementations.
var (
	// ErrIncompatible reports that two synopses cannot be combined or
	// compared, e.g. Bloom filters of different lengths, MIPs built from
	// different permutation seeds, or mixed kinds.
	ErrIncompatible = errors.New("synopsis: incompatible synopses")
	// ErrUnsupported reports that an operation is not defined for the
	// synopsis family, e.g. intersection of hash sketches (the paper,
	// Section 3.4, notes no low-error intersection is known for them).
	ErrUnsupported = errors.New("synopsis: operation unsupported for this kind")
	// ErrCorrupt reports malformed binary input to Unmarshal.
	ErrCorrupt = errors.New("synopsis: corrupt encoding")
)

// Set is the contract the IQN router needs from a synopsis. A Set stands
// for a finite set of 64-bit element identifiers (document IDs).
//
// Cardinality returns the number of distinct elements: exact while the
// synopsis has only been built by Add (every implementation counts its own
// inserts), estimated from the synopsis contents after a union or
// intersection, where the exact count is no longer known.
//
// Union and intersection fold the argument into the receiver; a caller
// that needs a new synopsis clones once and folds into the copy. Folding
// is safe only on a synopsis the caller owns. The synopses a search reads
// are shared read-only (the directory cache decodes each post once per
// epoch, and a peer memoises its own per index generation), so routing
// folds only into clones and references it built itself.
type Set interface {
	// Kind identifies the concrete family.
	Kind() Kind
	// Add inserts one element.
	Add(id uint64)
	// Cardinality returns the exact element count when known and the
	// synopsis-based estimate otherwise. It is never negative.
	Cardinality() float64
	// SizeBits returns the space the synopsis payload occupies in bits.
	SizeBits() int
	// Resemblance estimates |A∩B| / |A∪B| against another synopsis of the
	// same family.
	Resemblance(other Set) (float64, error)
	// UnionInPlace folds other into the receiver, which then approximates
	// the union of both sets. other is not modified.
	UnionInPlace(other Set) error
	// IntersectInPlace folds other into the receiver, which then
	// approximates the intersection of both sets (Bloom filters on the bit
	// level, MIPs via the conservative position-wise max heuristic of
	// Section 6.1). Hash sketches know no intersection and return
	// ErrUnsupported, leaving the receiver unchanged. other is not
	// modified.
	IntersectInPlace(other Set) error
	// Clone returns a deep copy.
	Clone() Set
	// MarshalBinary encodes the synopsis in the self-describing wire form.
	MarshalBinary() ([]byte, error)
}

// Config describes how a peer builds synopses. The paper's experiments fix
// a space budget in bits and derive each family's parameters from it
// (Section 3.3): a Bloom filter uses all Bits as its bit vector, MIPs use
// Bits/32 permutations of 32-bit minima, and hash sketches use Bits/64
// bitmaps of 64 bits.
type Config struct {
	// Kind selects the synopsis family.
	Kind Kind
	// Bits is the space budget for one synopsis. Values below the family
	// minimum are raised to it (32 for MIPs, 64 for hash sketches, 8 for
	// Bloom filters).
	Bits int
	// Seed parameterizes the MIPs permutations. All peers of a network
	// must agree on it — the paper's "same sequence of hash functions"
	// requirement — so it is part of the network-wide configuration.
	// Ignored by the other families, which use fixed internal mixers.
	Seed uint64
	// BloomHashes is the number k of hash functions for Bloom filters.
	// Zero selects a reasonable default (4).
	BloomHashes int
}

// New builds an empty synopsis according to the configuration.
func (c Config) New() Set {
	switch c.Kind {
	case KindMIPs:
		n := c.Bits / 32
		if n < 1 {
			n = 1
		}
		return NewMIPs(n, c.Seed)
	case KindHashSketch:
		m := c.Bits / 64
		if m < 1 {
			m = 1
		}
		return NewHashSketch(m)
	case KindSuperLogLog:
		return NewSuperLogLogBits(c.Bits)
	default:
		m := c.Bits
		if m < 8 {
			m = 8
		}
		k := c.BloomHashes
		if k <= 0 {
			k = 4
		}
		return NewBloom(m, k)
	}
}

// FromIDs builds a synopsis over the given element IDs.
func (c Config) FromIDs(ids []uint64) Set {
	s := c.New()
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Unmarshal decodes any synopsis previously produced by MarshalBinary,
// dispatching on the leading kind byte.
func Unmarshal(data []byte) (Set, error) {
	if len(data) == 0 {
		return nil, ErrCorrupt
	}
	switch Kind(data[0]) {
	case KindBloom:
		b := new(Bloom)
		if err := b.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return b, nil
	case KindMIPs:
		m := new(MIPs)
		if err := m.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return m, nil
	case KindHashSketch:
		h := new(HashSketch)
		if err := h.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return h, nil
	case KindSuperLogLog:
		s := new(SuperLogLog)
		if err := s.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind byte %d", ErrCorrupt, data[0])
	}
}

// splitmix64 is the SplitMix64 finalizer, used as the element mixer by all
// synopsis families. It is a bijection on 64-bit values with excellent
// avalanche behaviour, so sequential document IDs become pseudo-uniform
// hash inputs. Every peer applies the same mixer, which keeps synopses
// built independently on different peers comparable.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
