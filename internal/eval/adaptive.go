package eval

import (
	"fmt"
	"math/rand"
	"reflect"

	"iqn/internal/adapt"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// This file measures the adaptive query-log layer (internal/adapt) on
// the workload shape it exists for: Zipfian repetition. A few hot
// queries dominate real streams, so an initiator that remembers which
// peers actually contributed merged top-k entries can route later
// repetitions by observed contribution instead of synopsis estimation
// alone. The experiment asks the two questions that justify the layer:
//
//   1. Routing efficiency — after a warm-up window, does the
//      contribution prior reach a cold run's recall with fewer queried
//      peers? (PeersSaved: the best per-peer-budget saving across the
//      sweep.)
//   2. Adversarial robustness — when publishers inflate their directory
//      claims 50×, cold routing chases them and loses recall; does the
//      divergence detector's downweighting recover the honest
//      baseline? (RecoveredFrac: defended recall over honest recall.)
//
// A replay twin reruns the defended phase and requires byte-identical
// merged results per draw (ParityOK) — the prior must stay a pure
// function of the recorded observations.

// AdaptiveSweepPoint is one (mode, MaxPeers) cell of the efficiency
// sweep, measured over the post-warm-up window.
type AdaptiveSweepPoint struct {
	// Mode is "cold" (no adaptive store) or "warm" (store armed, first
	// half of the draws used as warm-up).
	Mode string `json:"mode"`
	// MaxPeers is the per-query routing budget.
	MaxPeers int `json:"maxPeers"`
	// Recall is the micro-averaged relative recall over the measured
	// window.
	Recall float64 `json:"recall"`
	// PriorHits counts adaptive cluster hits during the measured window
	// (0 in cold mode).
	PriorHits int64 `json:"priorHits"`
}

// AdaptiveResult is the experiment outcome; in JSON the report sits
// under one "adaptive" key.
type AdaptiveResult struct {
	*AdaptiveReport `json:"adaptive"`
}

// AdaptiveReport holds the measured numbers.
type AdaptiveReport struct {
	// Sweep holds the cold and warm recall per MaxPeers budget.
	Sweep []AdaptiveSweepPoint `json:"sweep"`
	// PeersSaved is the best budget saving the warm prior achieved: the
	// maximum over cold cells of (cold budget − smallest warm budget
	// reaching at least the cold cell's recall). ≥ 1 means the prior
	// reached some cold operating point with strictly fewer peers.
	PeersSaved int `json:"peersSaved"`
	// HonestRecall is the attack phase's no-inflation, no-adaptive
	// baseline recall over the measured window.
	HonestRecall float64 `json:"honestRecall"`
	// AttackedRecall is the recall with inflated publishers and no
	// defense: routing trusts the inflated claims and wastes budget.
	AttackedRecall float64 `json:"attackedRecall"`
	// DefendedRecall is the recall with inflated publishers and the
	// adaptive store armed: the divergence detector downweights them.
	DefendedRecall float64 `json:"defendedRecall"`
	// RecoveredFrac is DefendedRecall / HonestRecall — the fraction of
	// honest recall the defense wins back.
	RecoveredFrac float64 `json:"recoveredFrac"`
	// FlaggedPeers is how many peers the defended run's detector held
	// flagged after the workload (the attack inflates InflatedPeers).
	FlaggedPeers int `json:"flaggedPeers"`
	// InflatedPeers is how many publishers the attack phase inflated.
	InflatedPeers int `json:"inflatedPeers"`
	// ParityOK reports the defended run's replay produced byte-identical
	// merged results for every measured draw.
	ParityOK bool `json:"parityOK"`
	// Draws and DistinctQueries describe the Zipfian workload.
	Draws           int `json:"draws"`
	DistinctQueries int `json:"distinctQueries"`
	// canonical records that the run used the workload the recall gates
	// were calibrated for.
	canonical bool
}

// The adaptive experiment's canonical regime; its gates are calibrated
// against it.
const (
	// adaptiveDocs, adaptiveQueries and the vocabulary divisor are the
	// workload defaults, smaller than the figures'.
	adaptiveDocs       = 4000
	adaptiveVocabRatio = 4
	adaptiveQueries    = 8
	// adaptiveDrawsPerQuery sizes the Zipfian draw sequence (exponent
	// adaptiveZipfS): the first half warms the store, the second half
	// is measured.
	adaptiveDrawsPerQuery = 16
	adaptiveZipfS         = 1.3
	// adaptiveWarmupPeers is the routing budget of the warm modes'
	// warm-up window: the largest swept budget plus two. The log only
	// observes peers that were actually queried, so warming up at the
	// measured budget would merely reinforce cold routing's own picks;
	// a generous warm-up budget explores enough peers to learn who the
	// true contributors are, and the measured window then reaches them
	// with fewer slots — the prior's whole value proposition.
	adaptiveWarmupPeers = 10
	// The adversarial phase: routing budget, how many publishers inflate
	// (most of the budget, leaving an honest majority to recover with;
	// the initiator, peer 0, never inflates) and by what factor.
	adaptiveAttackPeers   = 6
	adaptiveInflated      = adaptiveAttackPeers - 1
	adaptiveInflateFactor = 50
	// adaptiveSynopsisBits is the bandwidth-frugal regime the prior
	// exists for: estimation noise at small budgets is exactly the
	// headroom observed contributions recover, and what makes fabricated
	// synopses a credible attack.
	adaptiveSynopsisBits = 64
)

var (
	adaptiveStrategy = Strategy{Fragments: 80, R: 4, Offset: 2}
	// adaptivePeerSweep is the MaxPeers budgets of the efficiency sweep.
	adaptivePeerSweep = []int{2, 3, 4, 5, 6, 7, 8}
	// adaptiveStore is a stronger-than-default contribution boost: the
	// warm modes route repetitions, where observed contribution is
	// strictly better evidence than a noisy small-budget synopsis
	// estimate.
	adaptiveStore = &adapt.Config{PriorWeight: 12}
)

// adaptiveRun is one pass over the shared draw sequence on a fresh
// network.
type adaptiveRun struct {
	// store arms the adaptive layer; nil runs the cold baseline.
	store *adapt.Config
	// warmupPeers and maxPeers are the routing budgets of the warm-up
	// and measured halves.
	warmupPeers, maxPeers int
	// inflated is how many publishers (peers 1..inflated) scale their
	// directory claims before any query runs.
	inflated int
}

// adaptiveOutcome is what a pass measured over the second-half window.
type adaptiveOutcome struct {
	recall    float64
	docs      [][]uint64 // per measured draw, the merged doc IDs: the replay parity artifact
	priorHits int64
	flagged   int // peers the initiator's detector holds flagged at the end
}

func (tb *testbed) adaptivePass(draws []int, run adaptiveRun) (out adaptiveOutcome, err error) {
	registry := telemetry.NewRegistry()
	net, err := tb.deploy(transport.NewInMem(), minerva.Config{
		SynopsisBits: adaptiveSynopsisBits,
		Adaptive:     run.store,
		Metrics:      registry,
	})
	if err != nil {
		return out, fmt.Errorf("eval: adaptive deploy: %w", err)
	}
	defer net.Close()
	// Attackers republish the full inflated-synopsis package: claimed
	// list lengths and MaxScore scaled by the factor (boosting CORI
	// quality and the claimed score ceiling) plus a fabricated synopsis
	// over doc IDs nobody holds, so novelty estimation sees them as
	// covering documents no honest peer overlaps — the strongest possible
	// claim to a routing slot. Their indexes are unchanged: what they
	// deliver is what they honestly hold.
	scfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: adaptiveSynopsisBits, Seed: uint64(tb.seed) + 99}
	for pi := 1; pi <= run.inflated; pi++ {
		p := net.Peers[pi%len(net.Peers)]
		posts, err := p.BuildPosts()
		if err != nil {
			return out, fmt.Errorf("eval: adaptive inflate %s: %w", p.Name(), err)
		}
		for i := range posts {
			claimed := int(float64(posts[i].ListLength) * adaptiveInflateFactor)
			fake := make([]uint64, min(claimed, 4096))
			for j := range fake {
				fake[j] = 1<<40 + uint64(pi)<<24 + uint64(j)
			}
			data, err := scfg.FromIDs(fake).MarshalBinary()
			if err != nil {
				return out, fmt.Errorf("eval: adaptive fabricate synopsis: %w", err)
			}
			posts[i].Synopsis = data
			posts[i].ListLength = claimed
			posts[i].MaxScore *= adaptiveInflateFactor
			posts[i].Epoch = 1
		}
		if _, err := p.Directory().Publish(posts); err != nil {
			return out, fmt.Errorf("eval: adaptive publish inflated: %w", err)
		}
	}
	// A fixed initiator, so repeated draws feed one store — the entry-
	// point locality a hot query stream has.
	initiator := net.Peers[0]
	warmup := len(draws) / 2
	var t tally
	// Recall is scored over repeated draws only — queries whose first
	// occurrence is in the measured window route identically in every
	// mode (there is nothing logged to adapt to), so counting them
	// would just dilute the comparison with noise shared by all modes.
	// Both cold and warm runs are scored over the same draw subset.
	seen := make(map[int]bool, len(tb.queries))
	for di, qi := range draws {
		if di == warmup {
			registry.Reset()
		}
		m := run.maxPeers
		if di < warmup {
			m = run.warmupPeers
		}
		repeat := seen[qi]
		seen[qi] = true
		q := tb.queries[qi]
		sr, err := initiator.Search(q.Terms, minerva.SearchOptions{K: tb.k, MaxPeers: m})
		if err != nil {
			return out, fmt.Errorf("eval: adaptive query %d: %w", q.ID, err)
		}
		if di < warmup || !repeat {
			continue
		}
		ids := make([]uint64, len(sr.Results))
		for i, r := range sr.Results {
			ids[i] = r.DocID
		}
		out.docs = append(out.docs, ids)
		t.add(sr.Results, net.ReferenceTopK(q.Terms, tb.k, false))
	}
	out.recall = t.recall()
	out.priorHits = registry.Snapshot().Counters["adapt.prior_hits"]
	if s := initiator.Adaptive(); s != nil {
		out.flagged = len(s.Flagged())
	}
	return out, nil
}

// adaptive runs the efficiency sweep, the adversarial phase, and the
// replay parity check. Unset sizes take the canonical workload, not the
// figures' defaults; the recall gates (Gate) only apply there.
func adaptive(p Params) (*AdaptiveReport, error) {
	cfg := Fig3Config{CorpusDocs: p.Docs, VocabSize: p.Vocab, Strategy: adaptiveStrategy,
		Queries: p.Queries, K: p.K, Seed: p.Seed}
	if cfg.CorpusDocs <= 0 {
		cfg.CorpusDocs = adaptiveDocs
	}
	if cfg.VocabSize <= 0 {
		cfg.VocabSize = cfg.CorpusDocs / adaptiveVocabRatio
	}
	if cfg.Queries <= 0 {
		cfg.Queries = adaptiveQueries
	}
	cfg.fillDefaults()
	tb, err := newTestbed(cfg)
	if err != nil {
		return nil, err
	}
	// One shared Zipfian draw sequence over the query pool, so every mode
	// and budget replays the exact same workload.
	rng := rand.New(rand.NewSource(tb.seed + 7))
	zipf := rand.NewZipf(rng, adaptiveZipfS, 1, uint64(len(tb.queries)-1))
	draws := make([]int, adaptiveDrawsPerQuery*cfg.Queries)
	distinct := map[int]struct{}{}
	for i := range draws {
		draws[i] = int(zipf.Uint64())
		distinct[draws[i]] = struct{}{}
	}
	res := &AdaptiveReport{
		Draws:           len(draws),
		DistinctQueries: len(distinct),
		InflatedPeers:   adaptiveInflated,
		canonical:       p.Docs == 0 && p.Vocab == 0 && p.Queries == 0 && p.K == 0 && p.Seed == 2006,
	}

	recall := map[string]map[int]float64{"cold": {}, "warm": {}}
	for _, mode := range []string{"cold", "warm"} {
		for _, m := range adaptivePeerSweep {
			run := adaptiveRun{warmupPeers: m, maxPeers: m}
			if mode == "warm" {
				run = adaptiveRun{store: adaptiveStore, warmupPeers: adaptiveWarmupPeers, maxPeers: m}
			}
			out, err := tb.adaptivePass(draws, run)
			if err != nil {
				return nil, err
			}
			recall[mode][m] = out.recall
			res.Sweep = append(res.Sweep, AdaptiveSweepPoint{Mode: mode, MaxPeers: m, Recall: out.recall, PriorHits: out.priorHits})
		}
	}
	// PeersSaved: for each cold operating point, the cheapest warm
	// budget that matches its recall; keep the best saving.
	for _, mc := range adaptivePeerSweep {
		for _, mw := range adaptivePeerSweep {
			if recall["warm"][mw] >= recall["cold"][mc]-1e-9 {
				res.PeersSaved = max(res.PeersSaved, mc-mw)
				break // the sweep ascends: first match is the cheapest
			}
		}
	}

	undefended := adaptiveRun{warmupPeers: adaptiveAttackPeers, maxPeers: adaptiveAttackPeers}
	honest, err := tb.adaptivePass(draws, undefended)
	if err != nil {
		return nil, err
	}
	undefended.inflated = adaptiveInflated
	attacked, err := tb.adaptivePass(draws, undefended)
	if err != nil {
		return nil, err
	}
	defense := adaptiveRun{store: adaptiveStore, warmupPeers: adaptiveWarmupPeers,
		maxPeers: adaptiveAttackPeers, inflated: adaptiveInflated}
	defended, err := tb.adaptivePass(draws, defense)
	if err != nil {
		return nil, err
	}
	res.HonestRecall, res.AttackedRecall, res.DefendedRecall = honest.recall, attacked.recall, defended.recall
	res.FlaggedPeers = defended.flagged
	if honest.recall > 0 {
		res.RecoveredFrac = defended.recall / honest.recall
	}
	replay, err := tb.adaptivePass(draws, defense)
	if err != nil {
		return nil, err
	}
	res.ParityOK = reflect.DeepEqual(defended.docs, replay.docs)
	return res, nil
}

// Gate fails when the replay diverged — parity must hold at any scale —
// or when, on the canonical workload the recall gates were calibrated
// for, the prior saved no peer or the defense recovered under 90% of
// honest recall.
func (r *AdaptiveReport) Gate() error {
	if !r.ParityOK || (r.canonical && (r.PeersSaved < 1 || r.RecoveredFrac < 0.9)) {
		return fmt.Errorf("gate failed (peersSaved=%d recoveredFrac=%.3f parity=%v)",
			r.PeersSaved, r.RecoveredFrac, r.ParityOK)
	}
	return nil
}

// Table renders the experiment as aligned text.
func (res *AdaptiveReport) Table() string {
	out := fmt.Sprintf("# Adaptive routing: %d Zipfian draws over %d distinct queries (second half measured)\n",
		res.Draws, res.DistinctQueries)
	out += fmt.Sprintf("%-6s %9s %8s %10s\n", "mode", "maxpeers", "recall", "priorhits")
	for _, p := range res.Sweep {
		out += fmt.Sprintf("%-6s %9d %8.3f %10d\n", p.Mode, p.MaxPeers, p.Recall, p.PriorHits)
	}
	out += fmt.Sprintf("peers saved at equal recall: %d\n", res.PeersSaved)
	out += fmt.Sprintf("# Inflated publishers (%d peers): honest vs attacked vs defended\n",
		res.InflatedPeers)
	out += fmt.Sprintf("honest    %0.3f\nattacked  %0.3f (no defense)\ndefended  %0.3f (flagged %d peers)\n",
		res.HonestRecall, res.AttackedRecall, res.DefendedRecall, res.FlaggedPeers)
	out += fmt.Sprintf("recovered fraction of honest recall: %0.3f\n", res.RecoveredFrac)
	out += fmt.Sprintf("replay parity: %v\n", res.ParityOK)
	return out
}
