package synopsis

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBloom:      "bloom",
		KindMIPs:       "mips",
		KindHashSketch: "hashsketch",
		Kind(99):       "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"bloom", "bf", "mips", "mip", "hashsketch", "hs"} {
		k, err := ParseKind(s)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", s, err)
		}
		if k == 0 {
			t.Fatalf("ParseKind(%q) = 0", s)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind(nope) succeeded")
	}
	// Round trips.
	for _, k := range []Kind{KindBloom, KindMIPs, KindHashSketch} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestConfigBudgets(t *testing.T) {
	// The paper's Figure 2 setting: a fixed 2048-bit budget yields 64 MIPs
	// permutations, 32 hash-sketch bitmaps, or a 2048-bit Bloom filter.
	const bits = 2048
	m := Config{Kind: KindMIPs, Bits: bits, Seed: 1}.New()
	if m.(*MIPs).Permutations() != 64 {
		t.Fatalf("MIPs perms = %d, want 64", m.(*MIPs).Permutations())
	}
	h := Config{Kind: KindHashSketch, Bits: bits}.New()
	if h.(*HashSketch).Bitmaps() != 32 {
		t.Fatalf("HS bitmaps = %d, want 32", h.(*HashSketch).Bitmaps())
	}
	b := Config{Kind: KindBloom, Bits: bits}.New()
	if b.(*Bloom).Bits() != 2048 {
		t.Fatalf("bloom bits = %d, want 2048", b.(*Bloom).Bits())
	}
	for _, s := range []Set{m, h, b} {
		if s.SizeBits() != bits {
			t.Errorf("%s SizeBits = %d, want %d", s.Kind(), s.SizeBits(), bits)
		}
	}
	// Tiny budgets clamp to family minimums instead of failing.
	if got := (Config{Kind: KindMIPs, Bits: 1}).New().(*MIPs).Permutations(); got != 1 {
		t.Fatalf("clamped MIPs perms = %d, want 1", got)
	}
	if got := (Config{Kind: KindHashSketch, Bits: 1}).New().(*HashSketch).Bitmaps(); got != 1 {
		t.Fatalf("clamped HS bitmaps = %d, want 1", got)
	}
	if got := (Config{Kind: KindBloom, Bits: 1}).New().(*Bloom).Bits(); got != 64 {
		t.Fatalf("clamped bloom bits = %d, want 64", got)
	}
}

func TestConfigFromIDs(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	for _, kind := range []Kind{KindBloom, KindMIPs, KindHashSketch} {
		s := Config{Kind: kind, Bits: 2048, Seed: 3}.FromIDs(ids)
		if got := s.Cardinality(); got != 5 {
			t.Errorf("%s FromIDs cardinality = %v, want 5", kind, got)
		}
	}
}

func TestUnmarshalDispatch(t *testing.T) {
	sets := []Set{
		Config{Kind: KindBloom, Bits: 512}.FromIDs([]uint64{1, 2}),
		Config{Kind: KindMIPs, Bits: 512, Seed: 4}.FromIDs([]uint64{1, 2}),
		Config{Kind: KindHashSketch, Bits: 512}.FromIDs([]uint64{1, 2}),
	}
	for _, s := range sets {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind(), err)
		}
		if got.Kind() != s.Kind() {
			t.Fatalf("Unmarshal kind = %v, want %v", got.Kind(), s.Kind())
		}
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal([]byte{42}); err == nil {
		t.Fatal("Unmarshal(unknown kind) succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, kind := range []Kind{KindBloom, KindMIPs, KindHashSketch} {
		s := Config{Kind: kind, Bits: 1024, Seed: 5}.FromIDs([]uint64{1, 2, 3})
		c := s.Clone()
		c.Add(99)
		if s.Cardinality() != 3 {
			t.Errorf("%s: mutation of clone leaked into original", kind)
		}
		if c.Cardinality() != 4 {
			t.Errorf("%s: clone did not record add", kind)
		}
	}
}

// TestCloneInto: a copy into a synopsis of the same family reuses that
// synopsis and its buffers without allocating and is byte-identical to
// Clone; into nil or another family it is a fresh copy. Either way the
// copy is independent of its source.
func TestCloneInto(t *testing.T) {
	kinds := []Kind{KindBloom, KindMIPs, KindHashSketch, KindSuperLogLog}
	for _, kind := range kinds {
		cfg := Config{Kind: kind, Bits: 1024, Seed: 5}
		src := cfg.FromIDs([]uint64{1, 2, 3, 4})
		want, err := src.Clone().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dst := cfg.FromIDs([]uint64{7, 8})
		if kind == KindMIPs {
			// A reference that shrank to a shorter vector keeps its
			// capacity; the copy grows back to the source's length.
			short := Config{Kind: kind, Bits: 256, Seed: 5}.FromIDs([]uint64{9})
			if err := dst.UnionInPlace(short); err != nil {
				t.Fatal(err)
			}
		}
		var got Set
		if allocs := testing.AllocsPerRun(10, func() { got = src.CloneInto(dst) }); allocs != 0 {
			t.Errorf("%s: CloneInto a same-family synopsis allocated %.0f times", kind, allocs)
		}
		if got != dst {
			t.Errorf("%s: CloneInto did not reuse dst", kind)
		}
		for _, other := range []Set{nil, Config{Kind: kinds[(int(kind)+1)%len(kinds)], Bits: 1024}.New()} {
			if c := src.CloneInto(other); c == other || c.Kind() != kind {
				t.Errorf("%s: CloneInto(%v) returned %v", kind, other, c)
			} else if b, _ := c.MarshalBinary(); !bytes.Equal(b, want) {
				t.Errorf("%s: CloneInto(%v) differs from Clone", kind, other)
			}
		}
		if b, _ := got.MarshalBinary(); !bytes.Equal(b, want) {
			t.Errorf("%s: CloneInto differs from Clone", kind)
		}
		got.Add(99)
		if b, _ := src.MarshalBinary(); !bytes.Equal(b, want) {
			t.Errorf("%s: mutating the copy changed its source", kind)
		}
	}
}

func TestOverlapFromResemblance(t *testing.T) {
	cases := []struct {
		r, a, b, want float64
	}{
		{0, 100, 100, 0},
		{1, 100, 100, 100},
		{0.5, 100, 100, 100.0 / 1.5},
		{-0.3, 100, 100, 0}, // clamped
		{2, 100, 50, 50},    // clamped to min cardinality
		{0.9, 1000, 10, 10}, // clamped to min cardinality
	}
	for _, c := range cases {
		got := OverlapFromResemblance(c.r, c.a, c.b)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("OverlapFromResemblance(%v,%v,%v) = %v, want %v", c.r, c.a, c.b, got, c.want)
		}
	}
}

// containmentFromResemblance derives Containment(A,B) = |A∩B|/|B|, the
// fraction of B already known to A, from a resemblance estimate and the
// two cardinalities. Resemblance and containment are interconvertible
// given both cardinalities (Section 3.1).
func containmentFromResemblance(r, cardA, cardB float64) float64 {
	if cardB <= 0 {
		return 0
	}
	c := OverlapFromResemblance(r, cardA, cardB) / cardB
	if c > 1 {
		c = 1
	}
	return c
}

func TestContainmentFromResemblance(t *testing.T) {
	if got := containmentFromResemblance(1, 100, 100); got != 1 {
		t.Fatalf("full containment = %v, want 1", got)
	}
	if got := containmentFromResemblance(0.5, 100, 0); got != 0 {
		t.Fatalf("empty B containment = %v, want 0", got)
	}
	// A small set fully inside a large one: R = 10/1000, containment of B
	// in A should recover ≈ 1.
	r := 10.0 / 1000.0
	got := containmentFromResemblance(r, 1000, 10)
	if math.Abs(got-1) > 0.01 {
		t.Fatalf("containment of subset = %v, want ≈1", got)
	}
}

func TestNoveltyFromResemblance(t *testing.T) {
	// Identical sets: no novelty.
	if got := NoveltyFromResemblance(1, 500, 500); got != 0 {
		t.Fatalf("identical novelty = %v, want 0", got)
	}
	// Disjoint sets: everything is new.
	if got := NoveltyFromResemblance(0, 500, 300); got != 300 {
		t.Fatalf("disjoint novelty = %v, want 300", got)
	}
	// The Section 3.1 motivating case: S_A ⊂ S_C with |S_A| small. Its
	// resemblance to the reference is low, yet novelty must be ≈ 0 —
	// resemblance/containment would wrongly prefer it.
	r := 10.0 / 1000.0 // |A∩C|=10, |A∪C|=1000
	if got := NoveltyFromResemblance(r, 1000, 10); got > 1 {
		t.Fatalf("contained-subset novelty = %v, want ≈0", got)
	}
}

func TestEstimateNoveltyAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, shared = 4000, 1600
	sa, sb := overlappingSets(rng, n, shared)
	trueNovelty := float64(n - shared)
	for _, kind := range []Kind{KindBloom, KindMIPs, KindHashSketch} {
		cfg := Config{Kind: kind, Bits: 1 << 15, Seed: 21}
		ref := cfg.FromIDs(sa)
		cand := cfg.FromIDs(sb)
		got, err := EstimateNovelty(ref, cand, float64(n), float64(n))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if relErr := math.Abs(got-trueNovelty) / trueNovelty; relErr > 0.5 {
			t.Errorf("%s: novelty estimate %v, true %v (rel err %v)", kind, got, trueNovelty, relErr)
		}
	}
}

func TestEstimateNoveltyDefaultsCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sa, sb := overlappingSets(rng, 1000, 500)
	cfg := Config{Kind: KindMIPs, Bits: 4096, Seed: 2}
	ref, cand := cfg.FromIDs(sa), cfg.FromIDs(sb)
	got, err := EstimateNovelty(ref, cand, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1000 {
		t.Fatalf("novelty with defaulted cardinalities = %v, out of range", got)
	}
}

func TestEstimateNoveltyContainedSubset(t *testing.T) {
	// The decisive scenario for the novelty measure: a candidate fully
	// contained in the reference must score ≈ 0 novelty under every
	// synopsis family.
	rng := rand.New(rand.NewSource(13))
	ref := makeIDs(rng, 5000)
	sub := ref[:200]
	for _, kind := range []Kind{KindBloom, KindMIPs, KindHashSketch} {
		cfg := Config{Kind: kind, Bits: 1 << 15, Seed: 8}
		r := cfg.FromIDs(ref)
		c := cfg.FromIDs(sub)
		got, err := EstimateNovelty(r, c, 5000, 200)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got > 100 {
			t.Errorf("%s: contained subset novelty = %v, want ≈0 (of 200)", kind, got)
		}
	}
}

// union returns the union synopsis of a and b the way production builds
// one: b folded into a clone of a. Neither operand is modified.
func union(a, b Set) (Set, error) {
	u := a.Clone()
	if err := u.UnionInPlace(b); err != nil {
		return nil, err
	}
	return u, nil
}

// intersect is union's twin for IntersectInPlace.
func intersect(a, b Set) (Set, error) {
	x := a.Clone()
	if err := x.IntersectInPlace(b); err != nil {
		return nil, err
	}
	return x, nil
}

// payload returns a synopsis's family-specific contents — minima, bits,
// bitmaps or buckets — without the exact count a set operation forgets.
func payload(s Set) any {
	switch v := s.(type) {
	case *MIPs:
		return v.mins
	case *Bloom:
		return v.bits
	case *HashSketch:
		return v.bitmaps
	case *SuperLogLog:
		return v.buckets
	}
	panic(fmt.Sprintf("payload: unknown synopsis %T", s))
}

// TestUnionMatchesSynopsisOfUnion pins the one union kernel against its
// exact oracle: for every family, folding B into a clone of A yields the
// same minima, bits or buckets as the synopsis built from A ∪ B, only
// without the exact count. MIPs of different lengths union to the
// shorter length, whose prefix permutations are the shorter vector's.
func TestUnionMatchesSynopsisOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []Kind{KindBloom, KindMIPs, KindHashSketch, KindSuperLogLog} {
		for _, bits := range [][2]int{{2048, 2048}, {2048, 512}, {512, 2048}} {
			if kind != KindMIPs && bits[0] != bits[1] {
				continue // only MIPs combine across lengths
			}
			ca := Config{Kind: kind, Bits: bits[0], Seed: 9}
			cb := Config{Kind: kind, Bits: bits[1], Seed: 9}
			sa, sb := overlappingSets(rng, 1500, 500)
			a, b := ca.FromIDs(sa), cb.FromIDs(sb)
			aBefore, bBefore := a.Clone(), b.Clone()
			u, err := union(a, b)
			if err != nil {
				t.Fatalf("%s %v: %v", kind, bits, err)
			}
			oracle := Config{Kind: kind, Bits: min(bits[0], bits[1]), Seed: 9}.FromIDs(append(sa, sb...))
			if !reflect.DeepEqual(payload(u), payload(oracle)) {
				t.Errorf("%s %v: union differs from the synopsis of the union", kind, bits)
			}
			if !reflect.DeepEqual(a, aBefore) || !reflect.DeepEqual(b, bBefore) {
				t.Errorf("%s %v: union modified an operand", kind, bits)
			}
		}
	}
}

// TestIntersectInPlaceMatchesOracle pins the intersection kernels
// against test-local loops: the position-wise max over the common MIPs
// prefix (Section 6.1's conservative heuristic) and the bit-wise AND of
// two Bloom filters.
func TestIntersectInPlaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, lens := range [][2]int{{64, 64}, {64, 16}, {16, 64}} {
		sa, sb := overlappingSets(rng, 800, 300)
		a, b := NewMIPs(lens[0], 4), NewMIPs(lens[1], 4)
		for _, id := range sa {
			a.Add(id)
		}
		for _, id := range sb {
			b.Add(id)
		}
		want := make([]uint32, min(lens[0], lens[1]))
		for i := range want {
			want[i] = max(a.mins[i], b.mins[i])
		}
		x, err := intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := x.(*MIPs).mins; !reflect.DeepEqual(got, want) {
			t.Errorf("MIPs %v: intersection minima differ from the position-wise max", lens)
		}
	}
	sa, sb := overlappingSets(rng, 800, 300)
	a, b := NewBloom(4096, 3), NewBloom(4096, 3)
	for _, id := range sa {
		a.Add(id)
	}
	for _, id := range sb {
		b.Add(id)
	}
	want := make([]uint64, len(a.bits))
	for i := range want {
		want[i] = a.bits[i] & b.bits[i]
	}
	x, err := intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.(*Bloom).bits; !reflect.DeepEqual(got, want) {
		t.Error("Bloom intersection differs from the bit-wise AND")
	}
}
