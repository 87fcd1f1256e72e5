package synopsis

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// fmPhi is the Flajolet-Martin magic constant φ ≈ 0.77351 correcting the
// expectation of 2^R toward the true cardinality.
const fmPhi = 0.775351

// HashSketch is a Flajolet-Martin probabilistic counting sketch in the
// PCSA ("stochastic averaging") variant (Flajolet/Martin 1985): m bitmaps
// of 64 bits each. An element is routed to one bitmap by the low bits of
// its hash, and sets the bit at position ρ(w) — the index of the least
// significant 1-bit of the remaining hash bits — so bit j of a bitmap is
// set with probability 2^{-(j+1)} per routed element.
//
// The sketch estimates distinct counts and supports union (bit-wise OR,
// Section 5.2/5.3 of the paper) but, as the paper notes in Section 3.4, no
// low-error intersection is known, which limits hash sketches for
// conjunctive multi-dimensional queries; IntersectInPlace therefore returns
// ErrUnsupported. Like Bloom filters they require equal geometry on both
// sides of every operation.
type HashSketch struct {
	bitmaps []uint64
	n       int64 // exact #adds, or -1 when unknown (after a union)
}

// NewHashSketch returns an empty sketch with m bitmaps of 64 bits. m is
// rounded up to a power of two (minimum 1) so elements can be routed by
// masking.
func NewHashSketch(m int) *HashSketch {
	if m < 1 {
		m = 1
	}
	// Round up to a power of two.
	p := 1
	for p < m {
		p <<= 1
	}
	return &HashSketch{bitmaps: make([]uint64, p)}
}

// Kind reports KindHashSketch.
func (h *HashSketch) Kind() Kind { return KindHashSketch }

// Bitmaps returns the number m of 64-bit bitmaps.
func (h *HashSketch) Bitmaps() int { return len(h.bitmaps) }

// SizeBits returns the payload size: 64 bits per bitmap.
func (h *HashSketch) SizeBits() int { return 64 * len(h.bitmaps) }

// Add inserts an element.
func (h *HashSketch) Add(id uint64) {
	g := splitmix64(id ^ 0x45f0aacc45f0aacc)
	j := g & uint64(len(h.bitmaps)-1)
	w := g >> uint(bits.TrailingZeros(uint(len(h.bitmaps)))) // drop routing bits
	rho := bits.TrailingZeros64(w)
	if rho > 63 {
		rho = 63
	}
	h.bitmaps[j] |= 1 << rho
	if h.n >= 0 {
		h.n++
	}
}

// firstZero returns the index of the least significant 0-bit of w, the
// R statistic of Flajolet-Martin.
func firstZero(w uint64) int {
	return bits.TrailingZeros64(^w)
}

// Cardinality returns the exact count while known and otherwise the PCSA
// estimate n̂ = (m/φ)·2^{mean R}, where R is each bitmap's first-zero
// position. The estimator's standard error is ≈ 0.78/√m; it is biased for
// very small sets — the unreliability for small collections the paper
// observes in Section 3.4 emerges from this, not from special-casing.
func (h *HashSketch) Cardinality() float64 {
	if h.n >= 0 {
		return float64(h.n)
	}
	return h.estimate()
}

// Estimate returns the synopsis-based cardinality estimate even when the
// exact count is known, for experiments comparing estimator quality.
func (h *HashSketch) Estimate() float64 { return h.estimate() }

func (h *HashSketch) estimate() float64 {
	sum := 0
	for _, w := range h.bitmaps {
		sum += firstZero(w)
	}
	m := float64(len(h.bitmaps))
	mean := float64(sum) / m
	return m / fmPhi * math.Exp2(mean)
}

// compatible verifies equal geometry.
func (h *HashSketch) compatible(other Set) (*HashSketch, error) {
	o, ok := other.(*HashSketch)
	if !ok {
		return nil, fmt.Errorf("%w: hashsketch vs %s", ErrIncompatible, other.Kind())
	}
	if len(o.bitmaps) != len(h.bitmaps) {
		return nil, fmt.Errorf("%w: hashsketch m=%d vs m=%d", ErrIncompatible, len(h.bitmaps), len(o.bitmaps))
	}
	return o, nil
}

// UnionInPlace folds the other sketch into the receiver: the sketch of
// the set union is the bit-wise OR of all bitmaps — a bit is set in the
// union sketch iff some element of either set sets it (Section 5.2). The
// receiver's exact cardinality becomes unknown.
func (h *HashSketch) UnionInPlace(other Set) error {
	o, err := h.compatible(other)
	if err != nil {
		return err
	}
	for i := range h.bitmaps {
		h.bitmaps[i] |= o.bitmaps[i]
	}
	h.n = -1
	return nil
}

// IntersectInPlace is unsupported for hash sketches (Section 3.4: "we
// are not aware of ways to derive aggregated synopses for the
// intersection"); the receiver is left unchanged.
func (h *HashSketch) IntersectInPlace(Set) error {
	return fmt.Errorf("%w: hash sketch intersection", ErrUnsupported)
}

// Resemblance estimates |A∩B| / |A∪B| by inclusion-exclusion over the
// sketch cardinality estimates: |A∩B| = |A| + |B| − |A∪B| (Section 5.2).
// The union estimate is computed from the OR of the bitmaps on the fly —
// no union sketch is materialized, keeping the kernel allocation-free.
// Negative intersection estimates (possible for disjoint sets because the
// three estimates carry independent noise) clamp to zero.
func (h *HashSketch) Resemblance(other Set) (float64, error) {
	o, err := h.compatible(other)
	if err != nil {
		return 0, err
	}
	sum := 0
	for i := range h.bitmaps {
		sum += firstZero(h.bitmaps[i] | o.bitmaps[i])
	}
	m := float64(len(h.bitmaps))
	a := h.estimate()
	b := o.estimate()
	u := m / fmPhi * math.Exp2(float64(sum)/m)
	if u <= 0 {
		return 1, nil // both empty
	}
	inter := a + b - u
	if inter < 0 {
		inter = 0
	}
	r := inter / u
	if r > 1 {
		r = 1
	}
	return r, nil
}

// Clone returns a deep copy.
func (h *HashSketch) Clone() Set {
	c := &HashSketch{bitmaps: make([]uint64, len(h.bitmaps)), n: h.n}
	copy(c.bitmaps, h.bitmaps)
	return c
}

// hsWireVersion guards the binary layout.
const hsWireVersion = 1

// MarshalBinary encodes the sketch as
// kind(1) version(1) m(4) n(8) bitmaps(8·m).
func (h *HashSketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 14+8*len(h.bitmaps))
	buf = append(buf, byte(KindHashSketch), hsWireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.bitmaps)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.n))
	for _, w := range h.bitmaps {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary decodes the MarshalBinary form.
func (h *HashSketch) UnmarshalBinary(data []byte) error {
	if len(data) < 14 || Kind(data[0]) != KindHashSketch {
		return fmt.Errorf("%w: not a hashsketch encoding", ErrCorrupt)
	}
	if data[1] != hsWireVersion {
		return fmt.Errorf("%w: hashsketch wire version %d", ErrCorrupt, data[1])
	}
	m := binary.LittleEndian.Uint32(data[2:])
	h.n = int64(binary.LittleEndian.Uint64(data[6:]))
	if m == 0 || m > 1<<22 || m&(m-1) != 0 || h.n < -1 {
		return fmt.Errorf("%w: hashsketch header m=%d n=%d", ErrCorrupt, m, h.n)
	}
	if len(data) != 14+8*int(m) {
		return fmt.Errorf("%w: hashsketch payload %d bytes for m=%d", ErrCorrupt, len(data), m)
	}
	h.bitmaps = make([]uint64, m)
	for i := range h.bitmaps {
		h.bitmaps[i] = binary.LittleEndian.Uint64(data[14+8*i:])
	}
	return nil
}
