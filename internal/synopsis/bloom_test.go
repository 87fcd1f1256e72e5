package synopsis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(4096, 4)
	rng := rand.New(rand.NewSource(1))
	ids := makeIDs(rng, 500)
	for _, id := range ids {
		b.Add(id)
	}
	for _, id := range ids {
		if !b.Contains(id) {
			t.Fatalf("false negative for %d", id)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	const m, k, n = 8192, 4, 500
	b := NewBloom(m, k)
	rng := rand.New(rand.NewSource(2))
	ids := makeIDs(rng, n+20000)
	for _, id := range ids[:n] {
		b.Add(id)
	}
	fp := 0
	for _, id := range ids[n:] {
		if b.Contains(id) {
			fp++
		}
	}
	got := float64(fp) / 20000
	want := BloomFalsePositiveRate(m, k, n)
	if got > want*3+0.01 {
		t.Fatalf("observed fp rate %v far above predicted %v", got, want)
	}
}

func TestBloomGeometry(t *testing.T) {
	b := NewBloom(100, 0) // m rounds up to multiple of 64, k clamps to 1
	if b.Bits() != 128 || b.Hashes() != 1 {
		t.Fatalf("geometry = %d/%d, want 128/1", b.Bits(), b.Hashes())
	}
	b = NewBloom(10, 3)
	if b.Bits() != 64 {
		t.Fatalf("minimum size = %d, want 64", b.Bits())
	}
	if b.SizeBits() != b.Bits() {
		t.Fatalf("SizeBits %d != Bits %d", b.SizeBits(), b.Bits())
	}
}

func TestBloomCardinalityEstimate(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		b := NewBloom(1<<16, 4)
		rng := rand.New(rand.NewSource(int64(n)))
		for _, id := range makeIDs(rng, n) {
			b.Add(id)
		}
		if got := b.Cardinality(); got != float64(n) {
			t.Fatalf("exact count lost: %v", got)
		}
		// Drop the exact count via a self-union and check the fill-ratio
		// estimate.
		u, err := union(b, b)
		if err != nil {
			t.Fatal(err)
		}
		est := u.Cardinality()
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.1 {
			t.Fatalf("n=%d: estimate %v, rel err %v > 0.1", n, est, relErr)
		}
	}
}

func TestBloomOverloadedEstimate(t *testing.T) {
	// An overloaded filter (n >> m) must return a finite estimate so the
	// router can still rank, even though accuracy is gone — the overload
	// regime of the paper's Figure 2.
	b := NewBloom(128, 4)
	rng := rand.New(rand.NewSource(9))
	for _, id := range makeIDs(rng, 10000) {
		b.Add(id)
	}
	u, err := union(b, b)
	if err != nil {
		t.Fatal(err)
	}
	est := u.Cardinality()
	if math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("saturated estimate %v, want finite", est)
	}
}

func TestBloomSetOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sa, sb := overlappingSets(rng, 1000, 400)
	ba, bb := NewBloom(1<<15, 4), NewBloom(1<<15, 4)
	for _, id := range sa {
		ba.Add(id)
	}
	for _, id := range sb {
		bb.Add(id)
	}
	u, err := union(ba, bb)
	if err != nil {
		t.Fatal(err)
	}
	trueUnion := float64(2*1000 - 400)
	if est := u.Cardinality(); math.Abs(est-trueUnion)/trueUnion > 0.1 {
		t.Fatalf("union estimate %v, want ≈%v", est, trueUnion)
	}
	x, err := intersect(ba, bb)
	if err != nil {
		t.Fatal(err)
	}
	if est := x.Cardinality(); math.Abs(est-400)/400 > 0.3 {
		t.Fatalf("intersect estimate %v, want ≈400", est)
	}
	d, err := difference(ba, bb)
	if err != nil {
		t.Fatal(err)
	}
	if est := d.Cardinality(); math.Abs(est-600)/600 > 0.3 {
		t.Fatalf("difference estimate %v, want ≈600", est)
	}
}

func TestBloomResemblance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sa, sb := overlappingSets(rng, 2000, 2000/3)
	ba, bb := NewBloom(1<<16, 4), NewBloom(1<<16, 4)
	for _, id := range sa {
		ba.Add(id)
	}
	for _, id := range sb {
		bb.Add(id)
	}
	want := trueResemblance(2000, 2000/3)
	got, err := ba.Resemblance(bb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.3 {
		t.Fatalf("resemblance %v, want ≈%v", got, want)
	}
	// Two empty filters are identical.
	r, err := NewBloom(256, 4).Resemblance(NewBloom(256, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("empty/empty resemblance = %v, want 1", r)
	}
}

func TestBloomIncompatible(t *testing.T) {
	a := NewBloom(256, 4)
	cases := []Set{NewBloom(512, 4), NewBloom(256, 5), NewMIPs(8, 1), NewHashSketch(4)}
	for _, other := range cases {
		if _, err := union(a, other); err == nil {
			t.Errorf("Union with %T/%v geometry succeeded, want error", other, other.SizeBits())
		}
		if _, err := a.Resemblance(other); err == nil {
			t.Errorf("Resemblance with %T succeeded, want error", other)
		}
	}
}

func TestBloomHelpers(t *testing.T) {
	if k := OptimalBloomHashes(8192, 1000); k < 4 || k > 8 {
		t.Fatalf("OptimalBloomHashes(8192,1000) = %d, want ≈ 5.7", k)
	}
	if k := OptimalBloomHashes(0, 0); k != 1 {
		t.Fatalf("degenerate OptimalBloomHashes = %d, want 1", k)
	}
	// FP rate grows with n for fixed geometry.
	prev := 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		p := BloomFalsePositiveRate(4096, 4, n)
		if p < prev {
			t.Fatalf("fp rate not monotone at n=%d: %v < %v", n, p, prev)
		}
		prev = p
	}
	if p := BloomFalsePositiveRate(0, 0, -1); p != 1 {
		t.Fatalf("degenerate fp rate = %v, want 1", p)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	b := NewBloom(1024, 3)
	for i := 0; i < 200; i++ {
		b.Add(uint64(i) * 13)
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := got.(*Bloom)
	if !ok {
		t.Fatalf("Unmarshal kind = %T", got)
	}
	if gb.Bits() != 1024 || gb.Hashes() != 3 || gb.Cardinality() != 200 {
		t.Fatalf("round trip mismatch: %d/%d/%v", gb.Bits(), gb.Hashes(), gb.Cardinality())
	}
	for i := range b.bits {
		if gb.bits[i] != b.bits[i] {
			t.Fatalf("bit word %d differs", i)
		}
	}
}

func TestBloomUnmarshalCorrupt(t *testing.T) {
	b := NewBloom(128, 2)
	data, _ := b.MarshalBinary()
	badHeader := append([]byte{}, data...)
	badHeader[2] = 1 // m no longer multiple of 64
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:5],
		"wrong kind":  append([]byte{byte(KindMIPs)}, data[1:]...),
		"bad version": append([]byte{data[0], 77}, data[2:]...),
		"bad m":       badHeader,
		"truncated":   data[:len(data)-3],
	}
	for name, d := range cases {
		var v Bloom
		if err := v.UnmarshalBinary(d); err == nil {
			t.Errorf("%s: UnmarshalBinary succeeded, want error", name)
		}
	}
}

func TestBloomContainsProperty(t *testing.T) {
	f := func(ids []uint64) bool {
		b := NewBloom(2048, 3)
		for _, id := range ids {
			b.Add(id)
		}
		for _, id := range ids {
			if !b.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomUnionSupersetProperty(t *testing.T) {
	f := func(idsA, idsB []uint64) bool {
		a, b := NewBloom(1024, 3), NewBloom(1024, 3)
		for _, id := range idsA {
			a.Add(id)
		}
		for _, id := range idsB {
			b.Add(id)
		}
		u, err := union(a, b)
		if err != nil {
			return false
		}
		ub := u.(*Bloom)
		for _, id := range append(append([]uint64{}, idsA...), idsB...) {
			if !ub.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// difference returns the bit-wise difference filter b ∧ ¬other, the
// paper's Bloom novelty filter (Section 5.2) — the oracle for
// DifferenceCardinality, which counts its bits without building it.
func difference(b, other *Bloom) (*Bloom, error) {
	if _, err := b.compatible(other); err != nil {
		return nil, err
	}
	d := &Bloom{m: b.m, k: b.k, bits: make([]uint64, len(b.bits)), n: -1}
	for i := range b.bits {
		d.bits[i] = b.bits[i] &^ other.bits[i]
	}
	return d, nil
}

func TestBloomDifferenceCardinalityMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shared := range []int{0, 100, 700, 1000} {
		sa, sb := overlappingSets(rng, 1000, shared)
		ba, bb := NewBloom(1<<14, 4), NewBloom(1<<14, 4)
		for _, id := range sa {
			ba.Add(id)
		}
		for _, id := range sb {
			bb.Add(id)
		}
		d, err := difference(ba, bb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ba.DifferenceCardinality(bb)
		if err != nil {
			t.Fatal(err)
		}
		if want := d.Cardinality(); got != want {
			t.Fatalf("shared=%d: DifferenceCardinality %v, difference filter %v", shared, got, want)
		}
	}
	if _, err := NewBloom(256, 4).DifferenceCardinality(NewBloom(512, 4)); err == nil {
		t.Fatal("DifferenceCardinality across geometries succeeded, want error")
	}
}
