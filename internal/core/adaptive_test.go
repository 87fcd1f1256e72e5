package core

import (
	"testing"

	"iqn/internal/synopsis"
)

func TestRecommend(t *testing.T) {
	// Heterogeneous lengths force MIPs regardless of anything else.
	r := Recommend(Scenario{HeterogeneousLengths: true, ConjunctiveQueries: true, TypicalListLength: 10})
	if r.Config.Kind != synopsis.KindMIPs {
		t.Fatalf("heterogeneous: %v", r.Config.Kind)
	}
	// Cardinality-only: super-LogLog.
	r = Recommend(Scenario{CardinalityOnly: true})
	if r.Config.Kind != synopsis.KindSuperLogLog {
		t.Fatalf("cardinality-only: %v", r.Config.Kind)
	}
	// Conjunctive with small lists and room: Bloom with sane k.
	r = Recommend(Scenario{ConjunctiveQueries: true, TypicalListLength: 100, MaxBitsPerTerm: 4096})
	if r.Config.Kind != synopsis.KindBloom {
		t.Fatalf("conjunctive small: %v", r.Config.Kind)
	}
	if r.Config.BloomHashes < 1 || r.Config.Bits < 800 {
		t.Fatalf("bloom config: %+v", r.Config)
	}
	// Conjunctive with huge lists: budget can't hold a filter → MIPs.
	r = Recommend(Scenario{ConjunctiveQueries: true, TypicalListLength: 1_000_000, MaxBitsPerTerm: 4096})
	if r.Config.Kind != synopsis.KindMIPs {
		t.Fatalf("conjunctive overloaded: %v", r.Config.Kind)
	}
	// Default: MIPs sized for the error target. se=0.05 → ≥100 perms.
	r = Recommend(Scenario{TargetError: 0.05})
	if r.Config.Kind != synopsis.KindMIPs {
		t.Fatalf("default kind: %v", r.Config.Kind)
	}
	if perms := r.Config.Bits / 32; perms < 100 {
		t.Fatalf("perms = %d for se 0.05, want ≥100", perms)
	}
	// The budget cap binds.
	r = Recommend(Scenario{TargetError: 0.01, MaxBitsPerTerm: 1024})
	if r.Config.Bits > 1024 {
		t.Fatalf("cap violated: %d bits", r.Config.Bits)
	}
	// Every recommendation explains itself and builds a working synopsis.
	for _, s := range []Scenario{
		{}, {HeterogeneousLengths: true}, {CardinalityOnly: true},
		{ConjunctiveQueries: true, TypicalListLength: 50},
	} {
		rec := Recommend(s)
		if rec.Rationale == "" {
			t.Fatalf("no rationale for %+v", s)
		}
		set := rec.Config.New()
		set.Add(42)
		if set.Cardinality() != 1 {
			t.Fatalf("recommended config unusable: %+v", rec.Config)
		}
	}
}

func TestRoundUpPow2(t *testing.T) {
	for in, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 100: 128} {
		if got := roundUpPow2(in); got != want {
			t.Errorf("roundUpPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
