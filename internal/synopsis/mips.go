package synopsis

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// mipsPrime is the modulus U of the linear permutation hashes
// h_i(x) = (a_i·x + b_i) mod U. It is the largest prime below 2^32, so
// every permuted value fits in a uint32 and the fixed-point arithmetic
// a·x+b never overflows uint64 (a, x, b < 2^32).
const mipsPrime uint64 = 4294967291

// mipsEmpty is the per-position sentinel for "no element seen yet". It is
// ≥ U and therefore never produced by a permutation.
const mipsEmpty uint32 = math.MaxUint32

// MIPs is a min-wise independent permutations synopsis (Broder et al.).
//
// It stores, for each of N pseudo-random linear permutations
// h_i(x) = (a_i·x + b_i) mod U, the minimum permuted value over all added
// elements. Because every element of a set is equally likely to yield the
// minimum under a random permutation, the fraction of positions in which
// two MIPs vectors agree is an unbiased estimator of the sets'
// resemblance |A∩B|/|A∪B| (Section 3.2 of the paper).
//
// The permutation parameters are derived deterministically from a network
// wide seed, so synopses built independently by different peers are
// directly comparable, and — uniquely among the three families — two MIPs
// of different lengths remain comparable over their min(N1,N2) common
// permutations (Section 3.4). This tolerance of heterogeneous lengths is
// why the paper selects MIPs as the synopsis of choice for IQN.
type MIPs struct {
	seed uint64
	mins []uint32
	n    int64 // exact #adds, or -1 when unknown (after a union or intersection)
	// a and b are the permutation coefficients, derived from seed at
	// construction (and after decoding) so Add stays cheap. They are not
	// serialized — the seed regenerates them.
	a, b []uint64
}

// NewMIPs returns an empty MIPs vector with n permutations derived from
// the given network-wide seed. n must be ≥ 1; it is clamped otherwise.
func NewMIPs(n int, seed uint64) *MIPs {
	if n < 1 {
		n = 1
	}
	m := &MIPs{seed: seed, mins: make([]uint32, n)}
	for i := range m.mins {
		m.mins[i] = mipsEmpty
	}
	m.deriveParams()
	return m
}

// deriveParams (re)points the permutation coefficients at the shared,
// seed-keyed coefficient cache. Coefficients are pure functions of
// (seed, index), so all vectors with one seed — every peer of a network —
// share one immutable slice pair, and decoding a synopsis never
// recomputes or reallocates them in steady state.
func (m *MIPs) deriveParams() {
	m.a, m.b = mipsSharedParams(m.seed, len(m.mins))
}

// mipsParamSlices is one immutable snapshot of derived coefficients; it is
// only ever replaced wholesale, never mutated, so readers need no lock.
type mipsParamSlices struct {
	a, b []uint64
}

// mipsParamSet holds the coefficient snapshot for one seed, grown under a
// mutex when a longer vector appears.
type mipsParamSet struct {
	mu sync.Mutex
	v  atomic.Pointer[mipsParamSlices]
}

// mipsParamCache maps seed → *mipsParamSet.
var mipsParamCache sync.Map

// mipsSharedParams returns read-only coefficient slices of length n for
// the seed, deriving and caching them on first use.
func mipsSharedParams(seed uint64, n int) (a, b []uint64) {
	entry, ok := mipsParamCache.Load(seed)
	if !ok {
		entry, _ = mipsParamCache.LoadOrStore(seed, &mipsParamSet{})
	}
	ps := entry.(*mipsParamSet)
	if cur := ps.v.Load(); cur != nil && len(cur.a) >= n {
		return cur.a[:n:n], cur.b[:n:n]
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	cur := ps.v.Load()
	if cur == nil || len(cur.a) < n {
		grown := n
		if cur != nil && 2*len(cur.a) > grown {
			grown = 2 * len(cur.a)
		}
		next := &mipsParamSlices{a: make([]uint64, grown), b: make([]uint64, grown)}
		for i := range next.a {
			next.a[i], next.b[i] = mipsParams(seed, i)
		}
		ps.v.Store(next)
		cur = next
	}
	return cur.a[:n:n], cur.b[:n:n]
}

// mipsParams returns the coefficients (a, b) of the i-th permutation for a
// seed. a is drawn from [1, U), b from [0, U), both via SplitMix64 streams
// keyed by (seed, i) so all peers derive identical permutations.
func mipsParams(seed uint64, i int) (a, b uint64) {
	h := splitmix64(seed ^ (0xa5a5a5a5a5a5a5a5 + uint64(i)*0x9e3779b97f4a7c15))
	a = h%(mipsPrime-1) + 1
	h = splitmix64(h ^ 0x5bd1e9955bd1e995)
	b = h % mipsPrime
	return a, b
}

// Kind reports KindMIPs.
func (m *MIPs) Kind() Kind { return KindMIPs }

// Permutations returns the number N of permutations (the vector length).
func (m *MIPs) Permutations() int { return len(m.mins) }

// Seed returns the permutation seed the vector was built with.
func (m *MIPs) Seed() uint64 { return m.seed }

// SizeBits returns the payload size: 32 bits per stored minimum.
func (m *MIPs) SizeBits() int { return 32 * len(m.mins) }

// Add inserts an element, updating every permutation's minimum.
func (m *MIPs) Add(id uint64) {
	// Elements are first mixed to a pseudo-uniform 32-bit value; the
	// linear permutations then act on that value. x < 2^32 keeps a·x+b
	// within uint64.
	x := splitmix64(id) >> 32
	for i := range m.mins {
		v := uint32((m.a[i]*x + m.b[i]) % mipsPrime)
		if v < m.mins[i] {
			m.mins[i] = v
		}
	}
	if m.n >= 0 {
		m.n++
	}
}

// Cardinality returns the exact number of added elements while known, and
// otherwise estimates it from the minima: for an n-element set each
// normalized minimum min_i/U is Beta(1,n) distributed with mean 1/(n+1),
// so n ≈ N / Σ(min_i/U) − 1.
func (m *MIPs) Cardinality() float64 {
	if m.n >= 0 {
		return float64(m.n)
	}
	var sum float64
	empty := 0
	for _, v := range m.mins {
		if v == mipsEmpty {
			empty++
			continue
		}
		sum += (float64(v) + 1) / float64(mipsPrime)
	}
	if empty == len(m.mins) {
		return 0
	}
	if sum == 0 {
		return math.Inf(1)
	}
	est := float64(len(m.mins)-empty)/sum - 1
	if est < 0 {
		return 0
	}
	return est
}

// compatible verifies the other synopsis is a MIPs vector with the same
// permutation seed.
func (m *MIPs) compatible(other Set) (*MIPs, error) {
	o, ok := other.(*MIPs)
	if !ok {
		return nil, fmt.Errorf("%w: MIPs vs %s", ErrIncompatible, other.Kind())
	}
	if o.seed != m.seed {
		return nil, fmt.Errorf("%w: MIPs permutation seeds differ (%d vs %d)", ErrIncompatible, m.seed, o.seed)
	}
	return o, nil
}

// Resemblance estimates |A∩B| / |A∪B| as the fraction of common
// permutations whose minima agree. Vectors of different lengths are
// compared over their min(N1,N2) common permutations, which degrades
// accuracy but keeps the estimator valid (Section 3.4). The kernel is
// allocation-free.
func (m *MIPs) Resemblance(other Set) (float64, error) {
	r, _, _, err := m.ResemblanceDetail(other)
	return r, err
}

// ResemblanceDetail is Resemblance plus the evidence the lazy IQN engine
// needs to maintain sound stale-score ceilings: the comparison length n
// and a bitmask with bit i set iff the minima agree at position i (first
// min(n, 64) positions; longer vectors report only the low 64). A
// position that matches can stop matching only if the other side's
// minimum at that position later decreases, which is what the router's
// change tracking in UnionTracked detects.
func (m *MIPs) ResemblanceDetail(other Set) (r float64, match uint64, n int, err error) {
	o, err := m.compatible(other)
	if err != nil {
		return 0, 0, 0, err
	}
	n = min(len(m.mins), len(o.mins))
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("%w: empty MIPs vector", ErrIncompatible)
	}
	count := 0
	for i := 0; i < n; i++ {
		if m.mins[i] == o.mins[i] {
			count++
			if i < 64 {
				match |= 1 << uint(i)
			}
		}
	}
	return float64(count) / float64(n), match, n, nil
}

// UnionInPlace folds other into the receiver: per permutation, the
// minimum of the combined set is the minimum of the two minima
// (Section 5.3). The receiver shrinks to min(N1,N2) permutations and no
// longer knows its exact cardinality.
func (m *MIPs) UnionInPlace(other Set) error {
	_, _, err := m.UnionTracked(other)
	return err
}

// UnionTracked is UnionInPlace plus the change evidence the lazy IQN
// engine uses to age stale resemblance estimates: which of the first
// min(n, 64) positions strictly decreased, and whether the receiver had
// to shrink to the other vector's length, which invalidates previously
// computed resemblances altogether.
func (m *MIPs) UnionTracked(other Set) (changed uint64, shrunk bool, err error) {
	o, err := m.compatible(other)
	if err != nil {
		return 0, false, err
	}
	shrunk = m.shrinkTo(len(o.mins))
	for i, v := range m.mins {
		if o.mins[i] < v {
			m.mins[i] = o.mins[i]
			if i < 64 {
				changed |= 1 << uint(i)
			}
		}
	}
	m.n = -1
	return changed, shrunk, nil
}

// IntersectInPlace applies the paper's conservative intersection
// heuristic (Section 6.1): per permutation the position-wise maximum.
// The result is not the MIPs vector of the true intersection, but the
// true minimum can be no lower than this value, so it is a usable
// upper-bound synopsis for conjunctive queries.
func (m *MIPs) IntersectInPlace(other Set) error {
	o, err := m.compatible(other)
	if err != nil {
		return err
	}
	m.shrinkTo(len(o.mins))
	for i, v := range m.mins {
		m.mins[i] = max(v, o.mins[i])
	}
	m.n = -1
	return nil
}

// shrinkTo truncates the vector to its first n permutations when it is
// longer, reporting whether it did.
func (m *MIPs) shrinkTo(n int) bool {
	if n >= len(m.mins) {
		return false
	}
	m.mins, m.a, m.b = m.mins[:n], m.a[:n], m.b[:n]
	return true
}

// Clone returns a deep copy.
func (m *MIPs) Clone() Set {
	c := &MIPs{seed: m.seed, mins: make([]uint32, len(m.mins)), n: m.n, a: m.a, b: m.b}
	copy(c.mins, m.mins)
	return c
}

// mipsWireVersion guards the binary layout.
const mipsWireVersion = 1

// MarshalBinary encodes the vector as
// kind(1) version(1) seed(8) n(8, two's complement) len(4) mins(4·len).
func (m *MIPs) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 22+4*len(m.mins))
	buf = append(buf, byte(KindMIPs), mipsWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, m.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.mins)))
	for _, v := range m.mins {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary decodes the MarshalBinary form.
func (m *MIPs) UnmarshalBinary(data []byte) error {
	if len(data) < 22 || Kind(data[0]) != KindMIPs {
		return fmt.Errorf("%w: not a MIPs encoding", ErrCorrupt)
	}
	if data[1] != mipsWireVersion {
		return fmt.Errorf("%w: MIPs wire version %d", ErrCorrupt, data[1])
	}
	m.seed = binary.LittleEndian.Uint64(data[2:])
	m.n = int64(binary.LittleEndian.Uint64(data[10:]))
	if m.n < -1 {
		return fmt.Errorf("%w: MIPs count %d", ErrCorrupt, m.n)
	}
	n := binary.LittleEndian.Uint32(data[18:])
	if n == 0 || n > 1<<20 || len(data) != 22+4*int(n) {
		return fmt.Errorf("%w: MIPs length %d for %d bytes", ErrCorrupt, n, len(data))
	}
	if cap(m.mins) >= int(n) {
		m.mins = m.mins[:n]
	} else {
		m.mins = make([]uint32, n)
	}
	for i := range m.mins {
		m.mins[i] = binary.LittleEndian.Uint32(data[22+4*i:])
	}
	m.deriveParams()
	return nil
}
