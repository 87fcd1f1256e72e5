package synopsis

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Bloom is a Bloom filter synopsis (Bloom 1970): an m-bit vector where
// each added element sets k bit positions derived by double hashing.
//
// Bloom filters support all three set operations the IQN router needs —
// union (bit-wise OR), intersection (bit-wise AND) and the cardinality of
// the difference (A ∧ ¬B) — and estimate cardinalities from the number
// of set bits. Their
// weakness, demonstrated in the paper's Section 3.3/3.4 experiments, is
// that the error explodes once the filter is overloaded (n ≫ m/k), and
// that filters of different lengths are mutually incomparable, forcing a
// global length parameter on the whole P2P network.
type Bloom struct {
	m    uint32 // number of bits
	k    uint32 // number of hash functions
	bits []uint64
	n    int64 // exact #adds, or -1 when unknown (after set operations)
}

// NewBloom returns an empty Bloom filter with m bits and k hash functions.
// m is rounded up to a multiple of 64; m < 64 becomes 64, k < 1 becomes 1.
func NewBloom(m, k int) *Bloom {
	if m < 64 {
		m = 64
	}
	words := (m + 63) / 64
	if k < 1 {
		k = 1
	}
	return &Bloom{m: uint32(words * 64), k: uint32(k), bits: make([]uint64, words)}
}

// OptimalBloomHashes returns the error-minimizing hash count
// k = (m/n)·ln 2 for an m-bit filter expected to hold n elements.
func OptimalBloomHashes(m, n int) int {
	if n <= 0 || m <= 0 {
		return 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// BloomFalsePositiveRate returns the classical approximation
// p ≈ (1 − e^{−kn/m})^k of the false-positive probability of an m-bit,
// k-hash filter holding n elements (Section 3.2).
func BloomFalsePositiveRate(m, k, n int) float64 {
	if m <= 0 || k <= 0 || n < 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// Kind reports KindBloom.
func (b *Bloom) Kind() Kind { return KindBloom }

// Bits returns the filter length m in bits.
func (b *Bloom) Bits() int { return int(b.m) }

// Hashes returns the number k of hash functions.
func (b *Bloom) Hashes() int { return int(b.k) }

// SizeBits returns the payload size, which equals the filter length.
func (b *Bloom) SizeBits() int { return int(b.m) }

// Add inserts an element. The k positions come from double hashing
// (h1 + i·h2) mod m over the two 32-bit halves of the mixed element.
func (b *Bloom) Add(id uint64) {
	g := splitmix64(id ^ 0xb10f11e2b10f11e2)
	h1 := uint32(g)
	h2 := uint32(g>>32) | 1 // odd, so all k positions differ for m power-of-two-ish
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + i*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	if b.n >= 0 {
		b.n++
	}
}

// Contains reports whether the element is in the set, with the filter's
// false-positive probability of a spurious true.
func (b *Bloom) Contains(id uint64) bool {
	g := splitmix64(id ^ 0xb10f11e2b10f11e2)
	h1 := uint32(g)
	h2 := uint32(g>>32) | 1
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + i*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (b *Bloom) OnesCount() int {
	c := 0
	for _, w := range b.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Cardinality returns the exact count while known, and otherwise the
// standard fill-ratio estimate n̂ = −(m/k)·ln(1 − X/m) where X is the
// number of set bits (Section 3.2's combinatorial computation solved for
// n). A saturated filter (X = m) yields the estimate for X = m − ½ — the
// formula's divergence point, reported finite so callers can still rank.
func (b *Bloom) Cardinality() float64 {
	if b.n >= 0 {
		return float64(b.n)
	}
	return b.cardinalityFromOnes(float64(b.OnesCount()))
}

// cardinalityFromOnes is the fill-ratio estimate for x set bits in this
// filter's geometry — the common tail of Cardinality and the single-pass
// kernels below.
func (b *Bloom) cardinalityFromOnes(x float64) float64 {
	m := float64(b.m)
	if x >= m {
		x = m - 0.5
	}
	if x == 0 {
		return 0
	}
	return -m / float64(b.k) * math.Log(1-x/m)
}

// compatible verifies matching length and hash count — Bloom filters of
// different geometry are incomparable, the key operational drawback the
// paper holds against them (Section 3.4).
func (b *Bloom) compatible(other Set) (*Bloom, error) {
	o, ok := other.(*Bloom)
	if !ok {
		return nil, fmt.Errorf("%w: bloom vs %s", ErrIncompatible, other.Kind())
	}
	if o.m != b.m || o.k != b.k {
		return nil, fmt.Errorf("%w: bloom geometry %d/%d vs %d/%d", ErrIncompatible, b.m, b.k, o.m, o.k)
	}
	return o, nil
}

// UnionInPlace folds the other filter into the receiver: the filter of
// the set union is the bit-wise OR (Section 5.3). The receiver's exact
// cardinality becomes unknown.
func (b *Bloom) UnionInPlace(other Set) error {
	o, err := b.compatible(other)
	if err != nil {
		return err
	}
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
	b.n = -1
	return nil
}

// IntersectInPlace ANDs the other filter into the receiver, the
// intersection approximation of Section 6.1. The AND filter has a higher
// false-positive rate than a filter built from the true intersection, so
// cardinality estimates on it are biased upward.
func (b *Bloom) IntersectInPlace(other Set) error {
	o, err := b.compatible(other)
	if err != nil {
		return err
	}
	for i := range b.bits {
		b.bits[i] &= o.bits[i]
	}
	b.n = -1
	return nil
}

// DifferenceCardinality estimates |B − other| — the paper's Bloom novelty
// measure (Section 5.2) — in a single allocation-free pass: it counts the
// set bits of the bit-wise difference filter b ∧ ¬other word-by-word with
// bits.OnesCount64 and applies the fill-ratio estimate, without
// materializing the filter. The difference filter is not an exact
// representation of the set difference — bits shared with the reference
// are cleared even when an element of the difference also maps to them —
// but its cardinality estimate is what the paper's Bloom-based IQN
// variant uses. This is the inner loop of every Bloom-based IQN
// iteration.
func (b *Bloom) DifferenceCardinality(other Set) (float64, error) {
	o, err := b.compatible(other)
	if err != nil {
		return 0, err
	}
	ones := 0
	for i := range b.bits {
		ones += bits.OnesCount64(b.bits[i] &^ o.bits[i])
	}
	return b.cardinalityFromOnes(float64(ones)), nil
}

// Resemblance estimates |A∩B| / |A∪B| from the cardinality estimates of
// the AND and OR filters, computed in one allocation-free word-level pass
// (the filters themselves are never materialized; only their set-bit
// counts matter).
func (b *Bloom) Resemblance(other Set) (float64, error) {
	o, err := b.compatible(other)
	if err != nil {
		return 0, err
	}
	onesAnd, onesOr := 0, 0
	for i := range b.bits {
		onesAnd += bits.OnesCount64(b.bits[i] & o.bits[i])
		onesOr += bits.OnesCount64(b.bits[i] | o.bits[i])
	}
	u := b.cardinalityFromOnes(float64(onesOr))
	if u == 0 {
		return 1, nil // both sets empty: identical
	}
	r := b.cardinalityFromOnes(float64(onesAnd)) / u
	if r > 1 {
		r = 1
	}
	return r, nil
}

// Clone returns a deep copy.
func (b *Bloom) Clone() Set { return b.CloneInto(nil) }

// CloneInto returns a deep copy, written into dst's memory when dst is a
// Bloom filter.
func (b *Bloom) CloneInto(dst Set) Set {
	c, ok := dst.(*Bloom)
	if !ok {
		c = new(Bloom)
	}
	*c = Bloom{m: b.m, k: b.k, bits: append(c.bits[:0], b.bits...), n: b.n}
	return c
}

// bloomWireVersion guards the binary layout.
const bloomWireVersion = 1

// MarshalBinary encodes the filter as
// kind(1) version(1) m(4) k(4) n(8) words(8·m/64).
func (b *Bloom) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 18+8*len(b.bits))
	buf = append(buf, byte(KindBloom), bloomWireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, b.m)
	buf = binary.LittleEndian.AppendUint32(buf, b.k)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.n))
	for _, w := range b.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary decodes the MarshalBinary form.
func (b *Bloom) UnmarshalBinary(data []byte) error {
	if len(data) < 18 || Kind(data[0]) != KindBloom {
		return fmt.Errorf("%w: not a bloom encoding", ErrCorrupt)
	}
	if data[1] != bloomWireVersion {
		return fmt.Errorf("%w: bloom wire version %d", ErrCorrupt, data[1])
	}
	b.m = binary.LittleEndian.Uint32(data[2:])
	b.k = binary.LittleEndian.Uint32(data[6:])
	b.n = int64(binary.LittleEndian.Uint64(data[10:]))
	if b.m == 0 || b.m%64 != 0 || b.m > 1<<28 || b.k == 0 || b.k > 64 || b.n < -1 {
		return fmt.Errorf("%w: bloom header m=%d k=%d n=%d", ErrCorrupt, b.m, b.k, b.n)
	}
	words := int(b.m / 64)
	if len(data) != 18+8*words {
		return fmt.Errorf("%w: bloom payload %d bytes for m=%d", ErrCorrupt, len(data), b.m)
	}
	b.bits = make([]uint64, words)
	for i := range b.bits {
		b.bits[i] = binary.LittleEndian.Uint64(data[18+8*i:])
	}
	return nil
}
