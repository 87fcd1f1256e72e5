package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iqn/internal/telemetry"
)

// The tests in this file cover the Options.Prior hook (the adaptive
// routing blend) and the rejection of candidates whose score is NaN.

// hashPrior is a deterministic, peer-dependent prior in (0.5, 2.5) —
// enough spread to reorder plans without zeroing anyone out.
func hashPrior(p PeerID) float64 {
	h := fnv.New32a()
	h.Write([]byte(p))
	return 0.5 + 2*float64(h.Sum32()%1000)/1000
}

func TestPriorLazyMatchesExhaustive(t *testing.T) {
	// The acceptance bar for the prior hook: Fast-IQN must stay
	// bit-identical to the exhaustive reference with the same prior, for
	// every synopsis family and aggregation mode.
	rng := rand.New(rand.NewSource(20260808))
	weights := []float64{0, 0.5, 1, 2}
	for trial := 0; trial < 48; trial++ {
		kc := lazyTestConfigs[rng.Intn(len(lazyTestConfigs))]
		opts := Options{
			MaxPeers:      rng.Intn(12),
			Aggregation:   AggregationMode(rng.Intn(2)),
			UseHistograms: rng.Float64() < 0.25,
			QualityWeight: weights[rng.Intn(len(weights))],
			NoveltyWeight: weights[rng.Intn(len(weights))],
			Prior:         hashPrior,
		}
		if rng.Float64() < 0.3 {
			opts.TargetCoverage = 200 + rng.Float64()*1500
		}
		q := Query{Terms: []string{"alpha", "beta", "gamma"}[:1+rng.Intn(3)], Type: QueryType(rng.Intn(2))}
		cands := randPlanCandidates(rng, kc.cfg, 5+rng.Intn(25), q.Terms, opts.UseHistograms)
		var initiator *Candidate
		if rng.Float64() < 0.5 {
			init := cand("self", 0, kc.cfg, map[string][]uint64{q.Terms[0]: idRange(0, 200)})
			initiator = &init
		}
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			assertSamePlan(t, q, initiator, cands, opts)
		})
	}
}

func TestPriorBiasesSelection(t *testing.T) {
	// Two byte-identical candidates: without a prior the tie breaks to
	// the lexicographically smaller peer; a prior favoring the other
	// must flip the selection (and scale the winning Step.Score).
	cfg := testCfg
	ids := idRange(0, 400)
	cands := []Candidate{
		cand("peer-a", 1, cfg, map[string][]uint64{"x": ids}),
		cand("peer-b", 1, cfg, map[string][]uint64{"x": ids}),
	}
	q := Query{Terms: []string{"x"}}

	cold, err := Route(q, nil, cands, Options{MaxPeers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Peers) != 1 || cold.Peers[0] != "peer-a" {
		t.Fatalf("cold plan = %v, want the tie broken to peer-a", cold.Peers)
	}

	prior := func(p PeerID) float64 {
		if p == "peer-b" {
			return 3
		}
		return 1
	}
	warm, err := Route(q, nil, cands, Options{MaxPeers: 1, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Peers) != 1 || warm.Peers[0] != "peer-b" {
		t.Fatalf("warm plan = %v, want the boosted peer-b", warm.Peers)
	}
	if warm.Steps[0].Score != 3*cold.Steps[0].Score {
		t.Fatalf("boosted score = %g, want 3× the cold score %g", warm.Steps[0].Score, cold.Steps[0].Score)
	}
	assertSamePlan(t, q, nil, cands, Options{MaxPeers: 1, Prior: prior})
}

func TestPriorClamping(t *testing.T) {
	cfg := testCfg
	q := Query{Terms: []string{"x"}}
	cands := []Candidate{
		cand("strong", 5, cfg, map[string][]uint64{"x": idRange(0, 500)}),
		cand("weak", 1, cfg, map[string][]uint64{"x": idRange(500, 600)}),
	}
	t.Run("negative clamps to zero", func(t *testing.T) {
		prior := func(p PeerID) float64 {
			if p == "strong" {
				return -7 // hostile prior: must zero, not invert, the score
			}
			return 1
		}
		plan, err := Route(q, nil, cands, Options{MaxPeers: 1, Prior: prior})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Peers) != 1 || plan.Peers[0] != "weak" {
			t.Fatalf("plan = %v, want the un-penalized weak peer", plan.Peers)
		}
		assertSamePlan(t, q, nil, cands, Options{MaxPeers: 1, Prior: prior})
	})
	t.Run("positive infinity clamps finite", func(t *testing.T) {
		prior := func(p PeerID) float64 {
			if p == "weak" {
				return math.Inf(1)
			}
			return 1
		}
		plan, err := Route(q, nil, cands, Options{MaxPeers: 2, Prior: prior})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Peers) != 2 || plan.Peers[0] != "weak" {
			t.Fatalf("plan = %v, want weak boosted to the front", plan.Peers)
		}
		for _, s := range plan.Steps {
			if math.IsNaN(s.Score) {
				t.Fatalf("infinite prior leaked a NaN score: %+v", s)
			}
		}
		assertSamePlan(t, q, nil, cands, Options{MaxPeers: 2, Prior: prior})
	})
}

// TestNaNCandidateRejected: a candidate whose quality factor is NaN — a
// NaN quality from untrusted post statistics, or a NaN prior — is never
// planned; the rest of the plan is the oracle's plan without it, and the
// rejection is counted (route.nan_rejected) and named on the span.
func TestNaNCandidateRejected(t *testing.T) {
	cfg := testCfg
	q := Query{Terms: []string{"x"}}
	clean := []Candidate{
		cand("good-a", 2, cfg, map[string][]uint64{"x": idRange(0, 300)}),
		cand("good-b", 1, cfg, map[string][]uint64{"x": idRange(600, 700)}),
		cand("good-c", 1.5, cfg, map[string][]uint64{"x": idRange(100, 450)}),
	}
	want, err := selectExhaustive(q, nil, clean, Options{MaxPeers: 4})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := append([]Candidate{cand("poisoned", math.NaN(), cfg, map[string][]uint64{"x": idRange(300, 600)})}, clean...)
	nanPrior := func(p PeerID) float64 {
		if p == "poisoned" {
			return math.NaN()
		}
		return 1
	}
	cases := []struct {
		name  string
		cands []Candidate
		prior func(PeerID) float64
	}{
		{"nan quality", poisoned, nil},
		{"nan prior", append([]Candidate{cand("poisoned", 3, cfg, map[string][]uint64{"x": idRange(300, 600)})}, clean...), nanPrior},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			trace := telemetry.NewTrace("nan-test", "route")
			plan, err := Route(q, nil, tc.cands, Options{MaxPeers: 4, Metrics: reg, Span: trace.Root(), Prior: tc.prior})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, want) {
				t.Fatalf("plan with a NaN candidate differs from the oracle without it\ngot:  %+v\nwant: %+v", plan, want)
			}
			if got := reg.Counter("route.nan_rejected").Value(); got != 1 {
				t.Fatalf("route.nan_rejected = %d, want 1", got)
			}
			if canon := trace.Canonical(); !strings.Contains(canon, "nan_rejected=poisoned") {
				t.Fatalf("trace does not name the rejected candidate:\n%s", canon)
			}
		})
	}
	// A clean route must not tick the counter.
	reg := telemetry.NewRegistry()
	if _, err := Route(q, nil, clean, Options{MaxPeers: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("route.nan_rejected").Value(); got != 0 {
		t.Fatalf("route.nan_rejected after a clean route = %d, want 0", got)
	}
}
