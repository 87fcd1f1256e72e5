package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"iqn/internal/synopsis"
)

// TestRouterReuseMatchesFreshRoute runs one Router over a seeded
// sequence of mixed routing calls — every synopsis family, per-peer and
// per-term aggregation, histograms, conjunctive queries, initiator
// seeds, reroutes, NaN-quality candidates and a Prior — and requires
// each plan to equal a fresh Route (or Reroute) of the same call, down
// to the float bits. The reused router must leave every input synopsis
// byte-identical, and no plan it returned may change under the calls
// that follow.
func TestRouterReuseMatchesFreshRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	weights := []float64{0, 0.5, 1, 2}
	var r Router
	type returned struct {
		plan, snapshot Plan
	}
	var plans []returned
	for call := 0; call < 160; call++ {
		kc := lazyTestConfigs[call%len(lazyTestConfigs)]
		opts := Options{
			MaxPeers:      rng.Intn(10),
			Aggregation:   AggregationMode(rng.Intn(2)),
			UseHistograms: rng.Float64() < 0.25,
		}
		if rng.Float64() < 0.3 {
			opts.QualityWeight = weights[rng.Intn(len(weights))]
			opts.NoveltyWeight = weights[rng.Intn(len(weights))]
		}
		if rng.Float64() < 0.25 {
			opts.TargetCoverage = 200 + rng.Float64()*1500
		}
		if rng.Float64() < 0.3 {
			opts.Prior = hashPrior
		}
		q := Query{Terms: []string{"alpha", "beta", "gamma"}[:1+rng.Intn(3)], Type: QueryType(rng.Intn(2))}
		cands := randPlanCandidates(rng, kc.cfg, 1+rng.Intn(30), q.Terms, opts.UseHistograms)
		if rng.Float64() < 0.2 {
			cands[rng.Intn(len(cands))].Quality = math.NaN()
		}
		var initiator *Candidate
		if rng.Float64() < 0.5 {
			init := cand("self", 0, kc.cfg, map[string][]uint64{q.Terms[0]: idRange(0, 200)})
			initiator = &init
		}
		var reached []Candidate
		reroute := rng.Float64() < 0.3
		if reroute {
			n := rng.Intn(len(cands))
			reached, cands = cands[:n], cands[n:]
		}
		inputs := inputBytes(t, initiator, append(slices.Clone(reached), cands...))
		var got, want Plan
		var errGot, errWant error
		if reroute {
			got, errGot = r.Reroute(q, initiator, reached, cands, opts)
			want, errWant = Reroute(q, initiator, reached, cands, opts)
		} else {
			got, errGot = r.Route(q, initiator, cands, opts)
			want, errWant = Route(q, initiator, cands, opts)
		}
		name := fmt.Sprintf("call %d (%s, %s, %s, reroute=%t)", call, kc.name, q.Type, opts.Aggregation, reroute)
		if !reflect.DeepEqual(inputBytes(t, initiator, append(slices.Clone(reached), cands...)), inputs) {
			t.Fatalf("%s: routing modified an input synopsis", name)
		}
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: error disagreement: reused=%v fresh=%v", name, errGot, errWant)
		}
		if !reflect.DeepEqual(planBits(got), planBits(want)) {
			t.Fatalf("%s: plans differ\nreused: %+v\nfresh:  %+v", name, got, want)
		}
		plans = append(plans, returned{got, Plan{Peers: slices.Clone(got.Peers), Steps: slices.Clone(got.Steps)}})
		if rng.Float64() < 0.2 {
			r.Reset()
		}
	}
	for i, p := range plans {
		if !reflect.DeepEqual(planBits(p.plan), planBits(p.snapshot)) {
			t.Fatalf("plan %d changed after later routes:\nnow:  %+v\nwas:  %+v", i, p.plan, p.snapshot)
		}
	}
}

// planBits is a plan in a form reflect.DeepEqual compares bit for bit:
// a candidate with a NaN quality is planned when the quality weight is
// 0, and NaN never equals itself.
func planBits(p Plan) any {
	type step struct {
		peer                             PeerID
		quality, novelty, score, covered uint64
	}
	steps := make([]step, len(p.Steps))
	for i, s := range p.Steps {
		steps[i] = step{s.Peer, math.Float64bits(s.Quality), math.Float64bits(s.Novelty), math.Float64bits(s.Score), math.Float64bits(s.Covered)}
	}
	return struct {
		peers []PeerID
		steps []step
	}{p.Peers, steps}
}

// TestRouterAllocs: a warm Router routes a multi-term MIPs query into
// its two plan slices and nothing else, under either aggregation mode.
func TestRouterAllocs(t *testing.T) {
	q, cands := routeBenchInput(200)
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 3}
	initiator := cand("self", 0, cfg, map[string][]uint64{"a": idRange(0, 300), "b": idRange(1000000, 1000300)})
	for _, agg := range []AggregationMode{PerPeer, PerTerm} {
		opts := Options{MaxPeers: 10, Aggregation: agg}
		var r Router
		if _, err := r.Route(q, &initiator, cands, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.Route(q, &initiator, cands, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per warm route of %d candidates", agg, allocs, len(cands))
		if allocs > 2 {
			t.Fatalf("%s: a warm route made %.0f allocations, want at most 2 (the plan)", agg, allocs)
		}
	}
}
