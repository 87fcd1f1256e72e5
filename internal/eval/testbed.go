package eval

import (
	"fmt"
	"math/rand"

	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/transport"
)

// This file is the one harness every network experiment runs on: a
// corpus, its per-peer collections and a query workload generated once,
// one way to deploy a network over them, and one micro-averaged recall
// loop.

// Params are the knobs the iqnbench CLI exposes. A zero field means
// "the experiment's own default": the figures' defaults are listed
// below, the adaptive experiment's canonical workload is smaller.
type Params struct {
	// Seed drives corpus, workload and fault generation.
	Seed int64
	// Docs and Vocab size the synthetic GOV substitute (default 20000
	// docs — the paper's corpus is 1.5M — and Docs/10 terms).
	Docs, Vocab int
	// Queries is the workload size (default 10, the paper's) and K the
	// result-list depth recall is measured at (default 50).
	Queries, K int
	// Runs is the number of random set pairs per Figure 2 point
	// (default 50, the paper's).
	Runs int
	// FixedSize is the collection size of Figure 2's right panel
	// (default 10000).
	FixedSize int
	// SuperLogLog adds a super-LogLog series to the Figure 2 panels.
	SuperLogLog bool
	// PeerCounts is the x-axis of the recall-vs-peers experiments
	// (default 1..10).
	PeerCounts []int
}

// The routing budget and directory replication factor every systems
// experiment (cost, load, chaos, churn, overload) is measured at.
const (
	systemsMaxPeers = 5
	systemsReplicas = 3
)

// Strategy selects how the corpus is spread over peers (Section 8.1).
type Strategy struct {
	// F and S activate the (F choose S) fragment-combination strategy.
	F, S int
	// Fragments, R and Offset activate the sliding-window strategy.
	Fragments, R, Offset int
}

// The paper's two assignments: Figure 3 left and right.
var (
	chooseS = Strategy{F: 6, S: 3}
	sliding = Strategy{Fragments: 100, R: 10, Offset: 2}
)

// assign builds the per-peer collections.
func (s Strategy) assign(c *dataset.Corpus) ([]dataset.Collection, error) {
	switch {
	case s.F > 0:
		return dataset.AssignChooseS(c, s.F, s.S), nil
	case s.Fragments > 0:
		return dataset.AssignSlidingWindow(c, s.Fragments, s.R, s.Offset), nil
	default:
		return nil, fmt.Errorf("eval: empty strategy")
	}
}

// String names the strategy.
func (s Strategy) String() string {
	if s.F > 0 {
		return fmt.Sprintf("(%d choose %d)", s.F, s.S)
	}
	return fmt.Sprintf("sliding(%d,r=%d,off=%d)", s.Fragments, s.R, s.Offset)
}

// testbed is the shared experimental setup: everything that is a pure
// function of (corpus size, strategy, workload size, seed).
type testbed struct {
	seed    int64
	k       int
	corpus  *dataset.Corpus
	cols    []dataset.Collection
	queries []dataset.Query
}

// newTestbed generates the corpus, assigns it to peers and draws the
// query workload. cfg has its defaults filled.
func newTestbed(cfg Fig3Config) (*testbed, error) {
	tb := &testbed{seed: cfg.Seed, k: cfg.K}
	tb.corpus = dataset.Generate(dataset.CorpusConfig{NumDocs: cfg.CorpusDocs, VocabSize: cfg.VocabSize, Seed: cfg.Seed})
	var err error
	if tb.cols, err = cfg.Strategy.assign(tb.corpus); err != nil {
		return nil, err
	}
	tb.queries = dataset.GenerateQueries(tb.corpus, dataset.QueryConfig{Count: cfg.Queries, Seed: cfg.Seed})
	if len(tb.queries) == 0 {
		// Every experiment averages over the workload; none may divide by
		// an empty one.
		return nil, fmt.Errorf("eval: workload has no queries")
	}
	return tb, nil
}

// deploy builds a network over the testbed's collections. A
// fault-injecting base gives every peer its own endpoint view, so
// injected partitions and crashes know which peer is calling.
func (tb *testbed) deploy(base transport.Network, cfg minerva.Config) (*minerva.Network, error) {
	var views func(string) transport.Network
	if faulty, ok := base.(*transport.Faulty); ok {
		views = faulty.Endpoint
	}
	cfg.SynopsisSeed = uint64(tb.seed) + 99
	return minerva.BuildNetworkEndpoints(base, views, tb.corpus, tb.cols, cfg)
}

// tally accumulates micro-averaged relative recall: total reference
// results found over total reference results.
type tally struct{ found, total int }

func (t *tally) add(results, reference []ir.Result) {
	got := make(map[uint64]struct{}, len(results))
	for _, r := range results {
		got[r.DocID] = struct{}{}
	}
	for _, r := range reference {
		t.total++
		if _, ok := got[r.DocID]; ok {
			t.found++
		}
	}
}

func (t tally) recall() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.found) / float64(t.total)
}

// recall runs the workload once, query i from initiators[i mod n], and
// returns the micro-averaged recall against the network's centralized
// reference. observe, when non-nil, sees every search result.
func (tb *testbed) recall(net *minerva.Network, initiators []*minerva.Peer, opts minerva.SearchOptions,
	observe func(*minerva.SearchResult)) (float64, error) {
	opts.K = tb.k
	var t tally
	for qi, q := range tb.queries {
		res, err := initiators[qi%len(initiators)].Search(q.Terms, opts)
		if err != nil {
			return 0, fmt.Errorf("query %d: %w", q.ID, err)
		}
		if observe != nil {
			observe(res)
		}
		t.add(res.Results, net.ReferenceTopK(q.Terms, tb.k, opts.Conjunctive))
	}
	return t.recall(), nil
}

// victims picks a seed-deterministic fraction of the network's peers —
// the ones an experiment crashes, partitions or slows — and returns
// them with the untouched rest, in network order.
func (tb *testbed) victims(net *minerva.Network, count int) (hit, rest []*minerva.Peer) {
	perm := rand.New(rand.NewSource(tb.seed + 1)).Perm(len(net.Peers))
	chosen := make(map[int]bool, count)
	for _, idx := range perm[:count] {
		chosen[idx] = true
		hit = append(hit, net.Peers[idx])
	}
	for idx, p := range net.Peers {
		if !chosen[idx] {
			rest = append(rest, p)
		}
	}
	return hit, rest
}

// healRing stabilizes the survivors until lookups route around the
// corpses.
func healRing(alive []*minerva.Peer) {
	for round := 0; round < 2*len(alive); round++ {
		for _, p := range alive {
			p.Node().Stabilize()
		}
	}
	for _, p := range alive {
		p.Node().FixAllFingers()
	}
}
