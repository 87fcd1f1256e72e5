package synopsis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeIDs returns n distinct pseudo-random element IDs.
func makeIDs(rng *rand.Rand, n int) []uint64 {
	ids := make([]uint64, 0, n)
	seen := make(map[uint64]struct{}, n)
	for len(ids) < n {
		id := rng.Uint64()
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids
}

// overlappingSets returns two disjointly-extended sets sharing exactly
// `shared` elements, each of total size n.
func overlappingSets(rng *rand.Rand, n, shared int) (a, b []uint64) {
	all := makeIDs(rng, 2*n-shared)
	common := all[:shared]
	a = append(append([]uint64{}, common...), all[shared:n]...)
	b = append(append([]uint64{}, common...), all[n:]...)
	return a, b
}

func trueResemblance(n, shared int) float64 {
	return float64(shared) / float64(2*n-shared)
}

func TestMIPsEmpty(t *testing.T) {
	m := NewMIPs(32, 7)
	if got := m.Cardinality(); got != 0 {
		t.Fatalf("empty cardinality = %v, want 0", got)
	}
	if m.Permutations() != 32 {
		t.Fatalf("Permutations = %d, want 32", m.Permutations())
	}
	if m.SizeBits() != 32*32 {
		t.Fatalf("SizeBits = %d, want 1024", m.SizeBits())
	}
	r, err := m.Resemblance(NewMIPs(32, 7))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("two empty vectors resemblance = %v, want 1 (all sentinels match)", r)
	}
}

func TestMIPsExactCount(t *testing.T) {
	m := NewMIPs(16, 1)
	for i := 0; i < 1000; i++ {
		m.Add(uint64(i))
	}
	if got := m.Cardinality(); got != 1000 {
		t.Fatalf("Cardinality = %v, want exact 1000", got)
	}
}

func TestMIPsDeterministicAcrossPeers(t *testing.T) {
	// Two peers with the same seed must produce identical vectors for the
	// same set — the basis of cross-peer comparability.
	a := NewMIPs(64, 42)
	b := NewMIPs(64, 42)
	rng := rand.New(rand.NewSource(1))
	ids := makeIDs(rng, 500)
	for _, id := range ids {
		a.Add(id)
	}
	// Insert in a different order on the second peer.
	for i := len(ids) - 1; i >= 0; i-- {
		b.Add(ids[i])
	}
	r, err := a.Resemblance(b)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("identical sets resemblance = %v, want 1", r)
	}
}

func TestMIPsResemblanceDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := NewMIPs(64, 9), NewMIPs(64, 9)
	for _, id := range makeIDs(rng, 2000) {
		a.Add(id)
	}
	for _, id := range makeIDs(rng, 2000) {
		b.Add(id)
	}
	r, err := a.Resemblance(b)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.1 {
		t.Fatalf("disjoint sets resemblance = %v, want ≈0", r)
	}
}

func TestMIPsResemblanceAccuracy(t *testing.T) {
	// 33% mutual overlap as in the paper's Figure 2 setting.
	rng := rand.New(rand.NewSource(3))
	const n, shared = 5000, 5000 / 3
	want := trueResemblance(n, shared)
	var sumErr float64
	const runs = 10
	for run := 0; run < runs; run++ {
		sa, sb := overlappingSets(rng, n, shared)
		ma, mb := NewMIPs(64, 11), NewMIPs(64, 11)
		for _, id := range sa {
			ma.Add(id)
		}
		for _, id := range sb {
			mb.Add(id)
		}
		got, err := ma.Resemblance(mb)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(got-want) / want
	}
	if avg := sumErr / runs; avg > 0.5 {
		t.Fatalf("avg relative resemblance error = %v, want < 0.5 for 64 perms", avg)
	}
}

func TestMIPsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sa, sb := overlappingSets(rng, 3000, 1000)
	ma, mb := NewMIPs(64, 5), NewMIPs(64, 5)
	direct := NewMIPs(64, 5) // built from the true union
	seen := map[uint64]struct{}{}
	for _, id := range sa {
		ma.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	for _, id := range sb {
		mb.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	u, err := union(ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	r, err := u.Resemblance(direct)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("union synopsis differs from direct union synopsis: resemblance %v, want 1", r)
	}
	trueCard := float64(len(seen))
	if est := u.Cardinality(); math.Abs(est-trueCard)/trueCard > 0.5 {
		t.Fatalf("union cardinality estimate %v too far from true %v", est, trueCard)
	}
}

func TestMIPsIntersectConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sa, sb := overlappingSets(rng, 2000, 800)
	ma, mb := NewMIPs(32, 5), NewMIPs(32, 5)
	for _, id := range sa {
		ma.Add(id)
	}
	for _, id := range sb {
		mb.Add(id)
	}
	x, err := intersect(ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	xm := x.(*MIPs)
	for i := range xm.mins {
		if xm.mins[i] < ma.mins[i] || xm.mins[i] < mb.mins[i] {
			t.Fatalf("intersect min[%d]=%d below an operand (%d, %d): not conservative", i, xm.mins[i], ma.mins[i], mb.mins[i])
		}
	}
	// The heuristic intersection cardinality must not exceed either set's
	// by a large factor; it should land at or below the smaller set size.
	if est := x.Cardinality(); est > 2*2000 {
		t.Fatalf("intersect cardinality estimate %v implausibly large", est)
	}
}

func TestMIPsHeterogeneousLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sa, sb := overlappingSets(rng, 4000, 2000)
	long, short := NewMIPs(128, 3), NewMIPs(32, 3)
	for _, id := range sa {
		long.Add(id)
	}
	for _, id := range sb {
		short.Add(id)
	}
	want := trueResemblance(4000, 2000)
	r, err := long.Resemblance(short)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-want) > 0.35 {
		t.Fatalf("heterogeneous resemblance %v too far from %v", r, want)
	}
	// Union of different lengths yields the shorter length.
	u, err := union(long, short)
	if err != nil {
		t.Fatal(err)
	}
	if u.(*MIPs).Permutations() != 32 {
		t.Fatalf("union length = %d, want 32 (min of operands)", u.(*MIPs).Permutations())
	}
	// Symmetric direction works too.
	if _, err := union(short, long); err != nil {
		t.Fatal(err)
	}
}

func TestMIPsSeedMismatch(t *testing.T) {
	a, b := NewMIPs(32, 1), NewMIPs(32, 2)
	if _, err := a.Resemblance(b); err == nil {
		t.Fatal("resemblance across seeds succeeded, want error")
	}
	if _, err := union(a, b); err == nil {
		t.Fatal("union across seeds succeeded, want error")
	}
	if _, err := intersect(a, b); err == nil {
		t.Fatal("intersect across seeds succeeded, want error")
	}
}

func TestMIPsKindMismatch(t *testing.T) {
	a := NewMIPs(32, 1)
	if _, err := a.Resemblance(NewBloom(256, 4)); err == nil {
		t.Fatal("MIPs vs Bloom resemblance succeeded, want error")
	}
}

// truncate returns a copy limited to the first n permutations, simulating
// a peer that publishes a shorter synopsis for the same term (Section 7.2
// adaptive lengths). n is clamped to [1, Permutations()].
func truncate(m *MIPs, n int) *MIPs {
	n = max(1, min(n, len(m.mins)))
	return &MIPs{seed: m.seed, mins: append([]uint32(nil), m.mins[:n]...), n: m.n, a: m.a[:n], b: m.b[:n]}
}

func TestMIPsTruncate(t *testing.T) {
	m := NewMIPs(64, 1)
	for i := 0; i < 100; i++ {
		m.Add(uint64(i))
	}
	for _, n := range []int{-5, 0, 1, 32, 64, 100} {
		tr := truncate(m, n)
		want := n
		if want < 1 {
			want = 1
		}
		if want > 64 {
			want = 64
		}
		if tr.Permutations() != want {
			t.Fatalf("truncate(%d).Permutations = %d, want %d", n, tr.Permutations(), want)
		}
	}
	// Truncation preserves the prefix.
	tr := truncate(m, 16)
	for i := 0; i < 16; i++ {
		if tr.mins[i] != m.mins[i] {
			t.Fatalf("truncate changed min[%d]", i)
		}
	}
	if tr.Cardinality() != 100 {
		t.Fatalf("truncate lost exact count: %v", tr.Cardinality())
	}
}

func TestMIPsCardinalityEstimate(t *testing.T) {
	// After a union the exact count is gone; the Beta-minima estimator
	// must land within ~35% for 128 permutations.
	for _, n := range []int{100, 1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		a, b := NewMIPs(128, 17), NewMIPs(128, 17)
		ids := makeIDs(rng, n)
		half := n / 2
		for _, id := range ids[:half] {
			a.Add(id)
		}
		for _, id := range ids[half:] {
			b.Add(id)
		}
		u, err := union(a, b)
		if err != nil {
			t.Fatal(err)
		}
		est := u.Cardinality()
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.35 {
			t.Fatalf("n=%d: estimate %v, rel err %v > 0.35", n, est, relErr)
		}
	}
}

func TestMIPsMarshalRoundTrip(t *testing.T) {
	m := NewMIPs(48, 99)
	for i := 0; i < 321; i++ {
		m.Add(uint64(i) * 7)
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := got.(*MIPs)
	if !ok {
		t.Fatalf("Unmarshal kind = %T", got)
	}
	if gm.Seed() != 99 || gm.Permutations() != 48 || gm.Cardinality() != 321 {
		t.Fatalf("round trip mismatch: seed=%d perms=%d card=%v", gm.Seed(), gm.Permutations(), gm.Cardinality())
	}
	r, err := gm.Resemblance(m)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("round-trip vector differs: resemblance %v", r)
	}
	// Unknown-count vectors round-trip too.
	u, _ := union(m, m)
	data, err = u.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gu, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if gu.(*MIPs).n != -1 {
		t.Fatalf("unknown count round-tripped to %d", gu.(*MIPs).n)
	}
}

func TestMIPsUnmarshalCorrupt(t *testing.T) {
	m := NewMIPs(8, 1)
	data, _ := m.MarshalBinary()
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:10],
		"wrong kind":  append([]byte{byte(KindBloom)}, data[1:]...),
		"bad version": append([]byte{data[0], 99}, data[2:]...),
		"truncated":   data[:len(data)-1],
		"extended":    append(append([]byte{}, data...), 0),
	}
	for name, d := range cases {
		var v MIPs
		if err := v.UnmarshalBinary(d); err == nil {
			t.Errorf("%s: UnmarshalBinary succeeded, want error", name)
		}
	}
}

func TestMIPsResemblanceRangeProperty(t *testing.T) {
	f := func(idsA, idsB []uint64) bool {
		a, b := NewMIPs(16, 77), NewMIPs(16, 77)
		for _, id := range idsA {
			a.Add(id)
		}
		for _, id := range idsB {
			b.Add(id)
		}
		r1, err1 := a.Resemblance(b)
		r2, err2 := b.Resemblance(a)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1 >= 0 && r1 <= 1 && r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMIPsUnionCommutativeProperty(t *testing.T) {
	f := func(idsA, idsB []uint64) bool {
		a, b := NewMIPs(16, 3), NewMIPs(16, 3)
		for _, id := range idsA {
			a.Add(id)
		}
		for _, id := range idsB {
			b.Add(id)
		}
		u1, err1 := union(a, b)
		u2, err2 := union(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		r, err := u1.Resemblance(u2)
		return err == nil && r == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMIPsUnionIdempotentProperty(t *testing.T) {
	f := func(ids []uint64) bool {
		a := NewMIPs(16, 3)
		for _, id := range ids {
			a.Add(id)
		}
		u, err := union(a, a)
		if err != nil {
			return false
		}
		r, err := u.Resemblance(a)
		return err == nil && r == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
