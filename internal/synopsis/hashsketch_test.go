package synopsis

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHashSketchGeometry(t *testing.T) {
	for m, want := range map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 17: 32, 32: 32} {
		h := NewHashSketch(m)
		if h.Bitmaps() != want {
			t.Errorf("NewHashSketch(%d).Bitmaps = %d, want %d", m, h.Bitmaps(), want)
		}
		if h.SizeBits() != 64*want {
			t.Errorf("SizeBits = %d, want %d", h.SizeBits(), 64*want)
		}
	}
}

func TestHashSketchExactCount(t *testing.T) {
	h := NewHashSketch(32)
	for i := 0; i < 777; i++ {
		h.Add(uint64(i))
	}
	if got := h.Cardinality(); got != 777 {
		t.Fatalf("Cardinality = %v, want exact 777", got)
	}
}

func TestHashSketchEstimateAccuracy(t *testing.T) {
	// PCSA with 32 bitmaps: standard error ≈ 0.78/√32 ≈ 14%. Allow 3σ.
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		h := NewHashSketch(32)
		for _, id := range makeIDs(rng, n) {
			h.Add(id)
		}
		est := h.Estimate()
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.45 {
			t.Fatalf("n=%d: estimate %v, rel err %v > 0.45", n, est, relErr)
		}
	}
}

func TestHashSketchSmallSetsUnreliable(t *testing.T) {
	// The paper (Section 3.4) observes hash sketches "produce some
	// unreliable estimates for very small collections". Document the
	// effect: the estimate for a handful of elements is far off, because
	// PCSA's 2^mean(R) granularity dominates. This is a characterization,
	// not a accuracy bound.
	h := NewHashSketch(32)
	for i := 0; i < 3; i++ {
		h.Add(uint64(i))
	}
	est := h.Estimate()
	if est < 0 {
		t.Fatalf("estimate %v negative", est)
	}
	t.Logf("PCSA estimate for 3 elements: %v (expected to be unreliable)", est)
}

func TestHashSketchUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sa, sb := overlappingSets(rng, 5000, 2500)
	ha, hb := NewHashSketch(32), NewHashSketch(32)
	direct := NewHashSketch(32)
	seen := map[uint64]struct{}{}
	for _, id := range sa {
		ha.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	for _, id := range sb {
		hb.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	u, err := union(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	uh := u.(*HashSketch)
	for i := range uh.bitmaps {
		if uh.bitmaps[i] != direct.bitmaps[i] {
			t.Fatalf("union bitmap %d differs from directly-built union", i)
		}
	}
	trueCard := float64(len(seen))
	if est := u.Cardinality(); math.Abs(est-trueCard)/trueCard > 0.45 {
		t.Fatalf("union estimate %v, want ≈%v", est, trueCard)
	}
}

func TestHashSketchIntersectUnsupported(t *testing.T) {
	a, b := NewHashSketch(8), NewHashSketch(8)
	a.Add(1)
	b.Add(2)
	before := a.Clone()
	if err := a.IntersectInPlace(b); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("IntersectInPlace error = %v, want ErrUnsupported", err)
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("unsupported intersection modified the receiver")
	}
}

func TestHashSketchResemblance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sa, sb := overlappingSets(rng, 10000, 10000/3)
	ha, hb := NewHashSketch(32), NewHashSketch(32)
	for _, id := range sa {
		ha.Add(id)
	}
	for _, id := range sb {
		hb.Add(id)
	}
	want := trueResemblance(10000, 10000/3)
	got, err := ha.Resemblance(hb)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1 {
		t.Fatalf("resemblance %v outside [0,1]", got)
	}
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("resemblance %v too far from %v", got, want)
	}
	// Empty/empty.
	r, err := NewHashSketch(4).Resemblance(NewHashSketch(4))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("empty/empty resemblance = %v, want 1", r)
	}
}

func TestHashSketchIncompatible(t *testing.T) {
	a := NewHashSketch(8)
	for _, other := range []Set{NewHashSketch(16), NewMIPs(8, 1), NewBloom(64, 1)} {
		if _, err := union(a, other); err == nil {
			t.Errorf("Union with %T succeeded, want error", other)
		}
		if _, err := a.Resemblance(other); err == nil {
			t.Errorf("Resemblance with %T succeeded, want error", other)
		}
	}
}

func TestHashSketchMarshalRoundTrip(t *testing.T) {
	h := NewHashSketch(16)
	for i := 0; i < 400; i++ {
		h.Add(uint64(i) * 31)
	}
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	gh, ok := got.(*HashSketch)
	if !ok {
		t.Fatalf("Unmarshal kind = %T", got)
	}
	if gh.Bitmaps() != 16 || gh.Cardinality() != 400 {
		t.Fatalf("round trip mismatch: %d bitmaps, card %v", gh.Bitmaps(), gh.Cardinality())
	}
	for i := range h.bitmaps {
		if gh.bitmaps[i] != h.bitmaps[i] {
			t.Fatalf("bitmap %d differs", i)
		}
	}
}

func TestHashSketchUnmarshalCorrupt(t *testing.T) {
	h := NewHashSketch(4)
	data, _ := h.MarshalBinary()
	badM := append([]byte{}, data...)
	badM[2] = 3 // not a power of two
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:6],
		"wrong kind":  append([]byte{byte(KindBloom)}, data[1:]...),
		"bad version": append([]byte{data[0], 5}, data[2:]...),
		"bad m":       badM,
		"truncated":   data[:len(data)-1],
	}
	for name, d := range cases {
		var v HashSketch
		if err := v.UnmarshalBinary(d); err == nil {
			t.Errorf("%s: UnmarshalBinary succeeded, want error", name)
		}
	}
}

func TestHashSketchUnionMonotoneProperty(t *testing.T) {
	// Union estimate is at least each operand's estimate: OR only adds bits
	// and the PCSA estimate is monotone in the bitmaps.
	f := func(idsA, idsB []uint64) bool {
		a, b := NewHashSketch(8), NewHashSketch(8)
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
		const eps = 1e-9
		return u.Cardinality() >= a.Estimate()-eps && u.Cardinality() >= b.Estimate()-eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
