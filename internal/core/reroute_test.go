package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRerouteEmptyReachedEqualsRoute pins the base case: with nothing
// reached yet, Reroute is exactly Route (same seeds, same engine, same
// plan down to the float bits).
func TestRerouteEmptyReachedEqualsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := Query{Terms: []string{"alpha", "beta"}}
	cands := randPlanCandidates(rng, testCfg, 24, q.Terms, false)
	initiator := &cands[0]
	rest := cands[1:]
	opts := Options{MaxPeers: 4}
	routed, err := Route(q, initiator, rest, opts)
	if err != nil {
		t.Fatal(err)
	}
	rerouted, err := Reroute(q, initiator, nil, rest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(routed, rerouted) {
		t.Fatalf("plans differ\nroute:   %+v\nreroute: %+v", routed, rerouted)
	}
}

// TestRerouteDeterministic requires identical replacement plans across
// repeated invocations with the same inputs.
func TestRerouteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	q := Query{Terms: []string{"alpha", "beta", "gamma"}}
	cands := randPlanCandidates(rng, testCfg, 30, q.Terms, false)
	initiator := &cands[0]
	reached := cands[1:4]
	remaining := cands[4:]
	opts := Options{MaxPeers: 3}
	a, err := Reroute(q, initiator, reached, remaining, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reroute(q, initiator, reached, remaining, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans differ across runs\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if len(a.Peers) != 3 {
		t.Fatalf("replacement plan size = %d, want 3", len(a.Peers))
	}
	for _, p := range a.Peers {
		for _, r := range reached {
			if p == r.Peer {
				t.Fatalf("replacement %s is a reached peer (caller contract: remaining excludes them)", p)
			}
		}
	}
}

// TestRerouteSeedsNovelty is the semantic heart of failure re-routing:
// the replacement is chosen for novelty beyond what the reached peers
// already contributed. A candidate that duplicates a reached peer's
// documents must lose to a smaller but fully novel candidate.
func TestRerouteSeedsNovelty(t *testing.T) {
	q := Query{Terms: []string{"x"}}
	reached := []Candidate{
		cand("reached", 1, testCfg, map[string][]uint64{"x": idRange(0, 400)}),
	}
	remaining := []Candidate{
		// Duplicate: same 400 documents the reached peer already covers.
		cand("duplicate", 1, testCfg, map[string][]uint64{"x": idRange(0, 400)}),
		// Novel: only 120 documents, but none already covered.
		cand("novel", 1, testCfg, map[string][]uint64{"x": idRange(1000, 1120)}),
	}
	plan, err := Reroute(q, nil, reached, remaining, Options{MaxPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 1 || plan.Peers[0] != "novel" {
		t.Fatalf("replacement = %v, want [novel]", plan.Peers)
	}
	// Control: without the reached seed, sheer size wins.
	plan, err = Reroute(q, nil, nil, remaining, Options{MaxPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 1 || plan.Peers[0] != "duplicate" {
		t.Fatalf("unseeded selection = %v, want [duplicate]", plan.Peers)
	}
}

// TestRerouteMultipleSeeds verifies every reached peer contributes to
// the reference synopsis: coverage is the union of all seeds.
func TestRerouteMultipleSeeds(t *testing.T) {
	q := Query{Terms: []string{"x"}}
	reached := []Candidate{
		cand("r1", 1, testCfg, map[string][]uint64{"x": idRange(0, 300)}),
		cand("r2", 1, testCfg, map[string][]uint64{"x": idRange(300, 600)}),
	}
	remaining := []Candidate{
		// Covered by r1 ∪ r2 but larger than the novel option.
		cand("covered", 1, testCfg, map[string][]uint64{"x": idRange(100, 500)}),
		cand("novel", 1, testCfg, map[string][]uint64{"x": idRange(2000, 2150)}),
	}
	plan, err := Reroute(q, nil, reached, remaining, Options{MaxPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 1 || plan.Peers[0] != "novel" {
		t.Fatalf("replacement = %v, want [novel] (union coverage)", plan.Peers)
	}
	// Seeding only r1 leaves r2's range novel, so "covered" (400 docs,
	// 300 of them novel beyond r1) outweighs "novel" (150 docs).
	plan, err = Reroute(q, nil, reached[:1], remaining, Options{MaxPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 1 || plan.Peers[0] != "covered" {
		t.Fatalf("single-seed replacement = %v, want [covered]", plan.Peers)
	}
}
