package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"iqn/internal/histogram"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
)

// raiseGOMAXPROCS lifts the scheduler width for the duration of a test
// so concurrent routing calls actually interleave even on single-CPU
// machines — the race detector needs the goroutines to run side by
// side, not physical cores.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// The tests in this file assert the Fast-IQN contract: Route (lazy
// selection) returns plans byte-identical to
// selectExhaustive, the paper's full-rescan loop kept here as the oracle,
// for every reference-state implementation and synopsis family.

// selectExhaustive is the reference Select-Best-Peer: every iteration
// re-estimates the novelty of every remaining candidate against the same
// referenceState Route uses, and the highest score wins, ties going to
// the lower sorted index.
func selectExhaustive(q Query, initiator *Candidate, cands []Candidate, opts Options) (Plan, error) {
	if err := validateQuery(q); err != nil {
		return Plan{}, err
	}
	state, err := newReferenceState(q, opts)
	if err != nil {
		return Plan{}, err
	}
	if initiator != nil {
		if _, err := state.absorb(-1, initiator); err != nil {
			return Plan{}, err
		}
	}
	sorted := sortCandidates(cands)
	state.prepare(len(sorted))
	selected := make([]bool, len(sorted))
	var plan Plan
	for len(plan.Peers) < len(sorted) {
		if opts.MaxPeers > 0 && len(plan.Peers) >= opts.MaxPeers {
			break
		}
		if opts.TargetCoverage > 0 && state.covered() >= opts.TargetCoverage {
			break
		}
		best, bestNov, bestScore := -1, 0.0, 0.0
		for i := range sorted {
			if selected[i] {
				continue
			}
			nov, err := state.novelty(i, &sorted[i])
			if err != nil {
				return Plan{}, err
			}
			score := qualityFactor(&sorted[i], opts) * powWeight(nov, opts.noveltyWeight())
			if best < 0 || score > bestScore {
				best, bestNov, bestScore = i, nov, score
			}
		}
		c := &sorted[best]
		if _, err := state.absorb(best, c); err != nil {
			return Plan{}, err
		}
		selected[best] = true
		plan.Peers = append(plan.Peers, c.Peer)
		plan.Steps = append(plan.Steps, Step{
			Peer: c.Peer, Quality: c.Quality, Novelty: bestNov, Score: bestScore, Covered: state.covered(),
		})
	}
	return plan, nil
}

// lazyTestConfigs covers all four synopsis families at the paper's
// 2048-bit budget.
var lazyTestConfigs = []struct {
	name string
	cfg  synopsis.Config
}{
	{"mips", synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 1234}},
	{"bloom", synopsis.Config{Kind: synopsis.KindBloom, Bits: 2048, BloomHashes: 4}},
	{"hashsketch", synopsis.Config{Kind: synopsis.KindHashSketch, Bits: 2048}},
	{"superloglog", synopsis.Config{Kind: synopsis.KindSuperLogLog, Bits: 2048}},
}

// randPlanCandidates builds n candidates with randomly overlapping ID
// sets, occasional missing terms, and heavily tied qualities (including
// zero), so tie-breaking paths are exercised. withHist additionally
// attaches score histograms to most term synopses, leaving some on the
// plain-synopsis fallback path.
func randPlanCandidates(rng *rand.Rand, cfg synopsis.Config, n int, terms []string, withHist bool) []Candidate {
	cands := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		c := Candidate{
			Peer:              PeerID(fmt.Sprintf("p%03d", i)),
			Quality:           float64(rng.Intn(8)) / 4, // many exact ties, some zeros
			TermSynopses:      map[string]synopsis.Set{},
			TermCardinalities: map[string]float64{},
		}
		if withHist {
			c.TermHistograms = map[string]*histogram.Histogram{}
		}
		for _, t := range terms {
			if rng.Float64() < 0.15 {
				continue // missing term: treated as empty set
			}
			span := 100 + rng.Intn(400)
			ids := make([]uint64, 0, span)
			for j := 0; j < span; j++ {
				ids = append(ids, uint64(rng.Intn(3000)))
			}
			c.TermSynopses[t] = cfg.FromIDs(ids)
			c.TermCardinalities[t] = float64(len(ids))
			if withHist && rng.Float64() < 0.8 {
				ps := make([]ir.Posting, len(ids))
				for j, id := range ids {
					ps[j] = ir.Posting{DocID: id, Score: rng.Float64() * 10}
				}
				c.TermHistograms[t] = histogram.Build(ps, 4, cfg)
			}
		}
		cands = append(cands, c)
	}
	return cands
}

// inputBytes encodes every synopsis Route may read — the plain and the
// histogram-cell synopses of the initiator and every candidate, in a
// fixed order — so a test can prove a call folded only into synopses it
// owns.
func inputBytes(t *testing.T, initiator *Candidate, cands []Candidate) [][]byte {
	t.Helper()
	all := cands
	if initiator != nil {
		all = append([]Candidate{*initiator}, cands...)
	}
	var out [][]byte
	add := func(s synopsis.Set) {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	for _, c := range all {
		var terms []string
		for term := range c.TermSynopses {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		for _, term := range terms {
			add(c.TermSynopses[term])
			if h := c.TermHistograms[term]; h != nil {
				for _, cell := range h.Cells {
					if cell.Synopsis != nil {
						add(cell.Synopsis)
					}
				}
			}
		}
	}
	return out
}

// assertSamePlan requires Route's plan and the oracle's to be identical
// down to the float bits of every Step, and both to leave every input
// synopsis byte-identical: aggregation folds only into clones.
func assertSamePlan(t *testing.T, q Query, initiator *Candidate, cands []Candidate, opts Options) {
	t.Helper()
	before := inputBytes(t, initiator, cands)
	exhaustive, errEx := selectExhaustive(q, initiator, cands, opts)
	lazy, errLazy := Route(q, initiator, cands, opts)
	if !reflect.DeepEqual(inputBytes(t, initiator, cands), before) {
		t.Fatal("routing modified an input synopsis")
	}
	if (errEx == nil) != (errLazy == nil) {
		t.Fatalf("error disagreement: exhaustive=%v lazy=%v", errEx, errLazy)
	}
	if errEx != nil {
		return
	}
	if !reflect.DeepEqual(exhaustive, lazy) {
		t.Fatalf("plans differ\nexhaustive: %+v\nlazy:       %+v", exhaustive, lazy)
	}
}

func TestLazySelectionMatchesExhaustive(t *testing.T) {
	modes := []struct {
		name string
		opts Options
		hist bool
	}{
		{"per-peer", Options{Aggregation: PerPeer}, false},
		{"per-term", Options{Aggregation: PerTerm}, false},
		{"histogram", Options{UseHistograms: true}, true},
	}
	for _, kc := range lazyTestConfigs {
		for _, qt := range []QueryType{Disjunctive, Conjunctive} {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%s/%s", kc.name, qt, mode.name)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
					cands := randPlanCandidates(rng, kc.cfg, 24, []string{"alpha", "beta"}, mode.hist)
					initiator := cand("self", 0, kc.cfg, map[string][]uint64{"alpha": idRange(0, 300)})
					q := Query{Terms: []string{"alpha", "beta"}, Type: qt}
					opts := mode.opts
					opts.MaxPeers = 8
					assertSamePlan(t, q, &initiator, cands, opts)
					assertSamePlan(t, q, nil, cands, opts)
				})
			}
		}
	}
}

func TestLazySelectionMatchesExhaustiveRandomized(t *testing.T) {
	// Property test: random synopsis family, aggregation mode, stopping
	// criteria and score weights (including the exponent that disables
	// a factor) must never change the plan.
	rng := rand.New(rand.NewSource(20260806))
	weights := []float64{0, 0.5, 1, 2}
	for trial := 0; trial < 48; trial++ {
		kc := lazyTestConfigs[rng.Intn(len(lazyTestConfigs))]
		opts := Options{
			MaxPeers:      rng.Intn(12), // 0: rank every candidate
			Aggregation:   AggregationMode(rng.Intn(2)),
			UseHistograms: rng.Float64() < 0.25,
			QualityWeight: weights[rng.Intn(len(weights))],
			NoveltyWeight: weights[rng.Intn(len(weights))],
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

func TestLazySelectionEdgeCases(t *testing.T) {
	cfg := testCfg
	q := Query{Terms: []string{"x"}}
	t.Run("no candidates", func(t *testing.T) {
		assertSamePlan(t, q, nil, nil, Options{MaxPeers: 3})
	})
	t.Run("budget exceeds candidates", func(t *testing.T) {
		cands := []Candidate{
			cand("a", 1, cfg, map[string][]uint64{"x": idRange(0, 100)}),
			cand("b", 1, cfg, map[string][]uint64{"x": idRange(50, 150)}),
		}
		assertSamePlan(t, q, nil, cands, Options{MaxPeers: 10})
	})
	t.Run("candidates without synopses", func(t *testing.T) {
		cands := []Candidate{
			{Peer: "empty-a", Quality: 2},
			{Peer: "empty-b", Quality: 2},
			cand("c", 1, cfg, map[string][]uint64{"x": idRange(0, 100)}),
		}
		assertSamePlan(t, q, nil, cands, Options{MaxPeers: 3})
	})
	t.Run("identical candidates tie-break", func(t *testing.T) {
		ids := idRange(0, 500)
		var cands []Candidate
		for i := 0; i < 6; i++ {
			cands = append(cands, cand(fmt.Sprintf("twin-%d", i), 1, cfg, map[string][]uint64{"x": ids}))
		}
		assertSamePlan(t, q, nil, cands, Options{MaxPeers: 4})
	})
}

// TestRouteParallelRace runs concurrent Route calls over one shared
// candidate set, as concurrent searches do over the directory cache's
// shared decoded synopses, so `go test -race` proves every
// reference-state implementation treats candidate synopses as
// read-only. Every call must also return the same plan.
func TestRouteParallelRace(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(7))
	q := Query{Terms: []string{"alpha", "beta"}}
	for _, kc := range lazyTestConfigs {
		for _, opts := range []Options{
			{MaxPeers: 6},
			{MaxPeers: 6, Aggregation: PerTerm},
			{MaxPeers: 6, UseHistograms: true},
		} {
			cands := randPlanCandidates(rng, kc.cfg, 120, q.Terms, opts.UseHistograms)
			initiator := cand("self", 0, kc.cfg, map[string][]uint64{"alpha": idRange(0, 300)})
			const workers = 4
			plans := make([]Plan, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					plans[w], errs[w] = Route(q, &initiator, cands, opts)
				}(w)
			}
			wg.Wait()
			for w := range plans {
				if errs[w] != nil {
					t.Fatalf("%s: %v", kc.name, errs[w])
				}
				if !reflect.DeepEqual(plans[w], plans[0]) {
					t.Fatalf("%s: concurrent Route calls disagree", kc.name)
				}
			}
		}
	}
}

// TestHistogramlessCandidatesRouteAsPerTerm: with no candidate carrying
// a histogram, the Section 7.1 mode reads nothing beyond the plain
// synopses, so it must plan exactly as per-term aggregation does — the
// one term-wise state serves both.
func TestHistogramlessCandidatesRouteAsPerTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kc := range lazyTestConfigs {
		for _, qt := range []QueryType{Disjunctive, Conjunctive} {
			q := Query{Terms: []string{"alpha", "beta", "gamma"}, Type: qt}
			cands := randPlanCandidates(rng, kc.cfg, 30, q.Terms, false)
			initiator := cand("self", 0, kc.cfg, map[string][]uint64{"beta": idRange(0, 300)})
			perTerm, err := Route(q, &initiator, cands, Options{Aggregation: PerTerm, TargetCoverage: 2500})
			if err != nil {
				t.Fatal(err)
			}
			hist, err := Route(q, &initiator, cands, Options{UseHistograms: true, TargetCoverage: 2500})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(perTerm, hist) {
				t.Fatalf("%s/%s: histogram mode without histograms diverged\nper-term:  %+v\nhistogram: %+v", kc.name, qt, perTerm, hist)
			}
		}
	}
}

// TestNegativeNoveltyWeightRejected: a negative exponent makes the score
// anti-monotone in novelty, so no ceiling is sound; Route and Reroute
// refuse it instead of ranking by it.
func TestNegativeNoveltyWeightRejected(t *testing.T) {
	q := Query{Terms: []string{"x"}}
	cands := []Candidate{cand("a", 1, testCfg, map[string][]uint64{"x": idRange(0, 100)})}
	opts := Options{MaxPeers: 1, QualityWeight: 1, NoveltyWeight: -1}
	if _, err := Route(q, nil, cands, opts); err == nil || !strings.Contains(err.Error(), "NoveltyWeight") {
		t.Fatalf("Route error = %v, want a negative-NoveltyWeight error", err)
	}
	if _, err := Reroute(q, nil, nil, cands, opts); err == nil {
		t.Fatal("Reroute accepted a negative NoveltyWeight")
	}
}

// routeBenchInput builds n candidates with overlapping two-term MIPs
// synopses at the paper's 2048-bit budget — the workload of the Fast-IQN
// acceptance comparison.
func routeBenchInput(n int) (Query, []Candidate) {
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 3}
	terms := []string{"a", "b"}
	cands := make([]Candidate, 0, n)
	for p := 0; p < n; p++ {
		c := Candidate{
			Peer:              PeerID(fmt.Sprintf("p%05d", p)),
			Quality:           0.4 + float64(p%7)*0.05,
			TermSynopses:      map[string]synopsis.Set{},
			TermCardinalities: map[string]float64{},
		}
		for ti, t := range terms {
			ids := make([]uint64, 200)
			for i := range ids {
				// Ranges overlap across peers; the two terms' ID spaces are
				// disjoint, as distinct keywords' posting lists mostly are.
				ids[i] = uint64(ti*1000000 + p*40 + i)
			}
			c.TermSynopses[t] = cfg.FromIDs(ids)
			c.TermCardinalities[t] = 200
		}
		cands = append(cands, c)
	}
	return Query{Terms: terms}, cands
}

// benchRoute times one routing engine over the shared candidate scales.
func benchRoute(b *testing.B, route func(Query, *Candidate, []Candidate, Options) (Plan, error), opts Options) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("cands=%d", n), func(b *testing.B) {
			q, cands := routeBenchInput(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := route(q, nil, cands, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteLazy measures the Fast-IQN lazy-greedy engine.
func BenchmarkRouteLazy(b *testing.B) {
	benchRoute(b, Route, Options{MaxPeers: 10})
}

// BenchmarkRouteExhaustive measures the full-rescan oracle on the
// identical workload.
func BenchmarkRouteExhaustive(b *testing.B) {
	benchRoute(b, selectExhaustive, Options{MaxPeers: 10})
}
