package synopsis

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSuperLogLogGeometry(t *testing.T) {
	for m, want := range map[int]int{-1: 4, 0: 4, 1: 4, 5: 8, 64: 64, 100: 128} {
		s := NewSuperLogLog(m)
		if s.Buckets() != want {
			t.Errorf("NewSuperLogLog(%d).Buckets = %d, want %d", m, s.Buckets(), want)
		}
	}
	// The 2048-bit budget affords 256 buckets (5 bits each, power of two).
	s := NewSuperLogLogBits(2048)
	if s.Buckets() != 256 {
		t.Fatalf("2048-bit SLL buckets = %d, want 256", s.Buckets())
	}
	if s.SizeBits() != 256*5 {
		t.Fatalf("SizeBits = %d, want %d", s.SizeBits(), 256*5)
	}
}

func TestSuperLogLogExactCount(t *testing.T) {
	s := NewSuperLogLog(64)
	for i := 0; i < 512; i++ {
		s.Add(uint64(i))
	}
	if got := s.Cardinality(); got != 512 {
		t.Fatalf("Cardinality = %v, want exact 512", got)
	}
}

func TestSuperLogLogEstimateAccuracy(t *testing.T) {
	// 256 buckets: standard error ≈ 1.05/√256 ≈ 6.6%. Allow generous
	// margin for the fixed-α small-m bias.
	for _, n := range []int{5000, 50000, 500000} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := NewSuperLogLogBits(2048)
		for i := 0; i < n; i++ {
			s.Add(rng.Uint64())
		}
		est := s.Estimate()
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.3 {
			t.Fatalf("n=%d: estimate %v, rel err %v > 0.3", n, est, relErr)
		}
	}
}

func TestSuperLogLogUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sa, sb := overlappingSets(rng, 20000, 10000)
	a, b := NewSuperLogLogBits(2048), NewSuperLogLogBits(2048)
	direct := NewSuperLogLogBits(2048)
	seen := map[uint64]struct{}{}
	for _, id := range sa {
		a.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	for _, id := range sb {
		b.Add(id)
		if _, dup := seen[id]; !dup {
			direct.Add(id)
			seen[id] = struct{}{}
		}
	}
	u, err := union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	us := u.(*SuperLogLog)
	if !reflect.DeepEqual(us.buckets, direct.buckets) {
		t.Fatal("union buckets differ from directly-built union")
	}
	trueCard := float64(len(seen))
	if est := u.Cardinality(); math.Abs(est-trueCard)/trueCard > 0.3 {
		t.Fatalf("union estimate %v, want ≈%v", est, trueCard)
	}
}

func TestSuperLogLogIntersectUnsupported(t *testing.T) {
	a, b := NewSuperLogLog(16), NewSuperLogLog(16)
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

func TestSuperLogLogResemblance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sa, sb := overlappingSets(rng, 30000, 10000)
	a, b := NewSuperLogLogBits(4096), NewSuperLogLogBits(4096)
	for _, id := range sa {
		a.Add(id)
	}
	for _, id := range sb {
		b.Add(id)
	}
	want := trueResemblance(30000, 10000)
	got, err := a.Resemblance(b)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1 {
		t.Fatalf("resemblance %v outside [0,1]", got)
	}
	if math.Abs(got-want) > 0.25 {
		t.Fatalf("resemblance %v too far from %v", got, want)
	}
	// Empty/empty.
	r, err := NewSuperLogLog(8).Resemblance(NewSuperLogLog(8))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("empty/empty resemblance = %v", r)
	}
}

func TestSuperLogLogIncompatible(t *testing.T) {
	a := NewSuperLogLog(16)
	for _, other := range []Set{NewSuperLogLog(32), NewMIPs(8, 1), NewBloom(64, 1), NewHashSketch(4)} {
		if _, err := union(a, other); err == nil {
			t.Errorf("Union with %T succeeded", other)
		}
	}
}

func TestSuperLogLogSpaceAdvantage(t *testing.T) {
	// The motivation for the variant: at the same bit budget it affords
	// far more buckets than PCSA bitmaps, hence lower estimator variance.
	sll := NewSuperLogLogBits(2048)
	hs := NewHashSketch(2048 / 64)
	if sll.Buckets() <= hs.Bitmaps() {
		t.Fatalf("SLL buckets %d not above HS bitmaps %d at equal budget", sll.Buckets(), hs.Bitmaps())
	}
	// And the realized accuracy is better on a large set.
	rng := rand.New(rand.NewSource(23))
	n := 100000
	for i := 0; i < n; i++ {
		id := rng.Uint64()
		sll.Add(id)
		hs.Add(id)
	}
	sllErr := math.Abs(sll.Estimate()-float64(n)) / float64(n)
	hsErr := math.Abs(hs.Estimate()-float64(n)) / float64(n)
	t.Logf("errors at 2048 bits: superloglog %.4f, hashsketch %.4f", sllErr, hsErr)
	if sllErr > 0.3 {
		t.Fatalf("superloglog error %v too high", sllErr)
	}
}

func TestSuperLogLogMarshalRoundTrip(t *testing.T) {
	s := NewSuperLogLog(64)
	for i := 0; i < 1000; i++ {
		s.Add(uint64(i) * 17)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// 5-bit packing: 64 buckets → 40 payload bytes + 14 header.
	if len(data) != 14+40 {
		t.Fatalf("encoded size = %d, want 54", len(data))
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := got.(*SuperLogLog)
	if !ok {
		t.Fatalf("Unmarshal kind = %T", got)
	}
	if gs.Buckets() != 64 || gs.Cardinality() != 1000 {
		t.Fatalf("round trip: %d buckets, card %v", gs.Buckets(), gs.Cardinality())
	}
	if !reflect.DeepEqual(gs.buckets, s.buckets) {
		t.Fatal("bucket values corrupted by 5-bit packing")
	}
}

func TestSuperLogLogUnmarshalCorrupt(t *testing.T) {
	s := NewSuperLogLog(8)
	data, _ := s.MarshalBinary()
	badM := append([]byte{}, data...)
	badM[2] = 3
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:6],
		"wrong kind":  append([]byte{byte(KindBloom)}, data[1:]...),
		"bad version": append([]byte{data[0], 9}, data[2:]...),
		"bad m":       badM,
		"truncated":   data[:len(data)-1],
	}
	for name, d := range cases {
		var v SuperLogLog
		if err := v.UnmarshalBinary(d); err == nil {
			t.Errorf("%s: UnmarshalBinary succeeded", name)
		}
	}
}

func TestPackBits5RoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]uint8, len(raw))
		for i, v := range raw {
			vals[i] = v & 0x1f
		}
		got := unpackBits5(packBits5(vals), len(vals))
		return reflect.DeepEqual(got, vals) || (len(vals) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperLogLogConfigIntegration(t *testing.T) {
	s := Config{Kind: KindSuperLogLog, Bits: 2048}.FromIDs([]uint64{1, 2, 3})
	if s.Kind() != KindSuperLogLog || s.Cardinality() != 3 {
		t.Fatalf("config integration: %v/%v", s.Kind(), s.Cardinality())
	}
	k, err := ParseKind("sll")
	if err != nil || k != KindSuperLogLog {
		t.Fatalf("ParseKind(sll) = %v, %v", k, err)
	}
	if KindSuperLogLog.String() != "superloglog" {
		t.Fatalf("String = %q", KindSuperLogLog.String())
	}
	// EstimateNovelty works through the generic path.
	rng := rand.New(rand.NewSource(24))
	sa, sb := overlappingSets(rng, 20000, 8000)
	cfg := Config{Kind: KindSuperLogLog, Bits: 4096}
	nov, err := EstimateNovelty(cfg.FromIDs(sa), cfg.FromIDs(sb), 20000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nov-12000)/12000 > 0.5 {
		t.Fatalf("novelty %v, want ≈12000", nov)
	}
}
