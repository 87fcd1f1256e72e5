package eval

import (
	"fmt"
	"math/rand"
	"time"

	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// This file measures what incremental top-k streaming buys on the wire.
// Pull forwarding ships every selected peer's full local top-K to the
// initiator as one chunk; streaming (SearchOptions.TopKStreaming) pulls
// small score-descending chunks and stops each peer the moment its
// refined upper bound drops below the k-th best merged score. The
// experiment replays one Zipfian workload at both settings on the same
// network and reports the initiator's transport.bytes_in reduction —
// which must come at *identical* results, checked per draw, not just
// identical recall.
//
// The directory cache is armed in both modes (and pre-warmed), so the
// byte counters are dominated by query-response traffic rather than
// synopsis fetches; the comparison isolates the result-shipping cost
// the threshold protocol is designed to cut.

// TopKPoint is one (k, peers, chunk) cell measured under both modes.
type TopKPoint struct {
	// K is the merge depth (and per-peer pull depth), MaxPeers the
	// routing budget, ChunkSize the streaming chunk size.
	K, MaxPeers, ChunkSize int
	// PullBytesIn / StreamBytesIn are the initiator-side response bytes
	// over the workload; BytesReductionPct is the streaming saving.
	PullBytesIn, StreamBytesIn int64
	BytesReductionPct          float64
	// PullBytesOut / StreamBytesOut are the request bytes — streaming
	// issues more (smaller) RPCs, so this is its overhead side.
	PullBytesOut, StreamBytesOut int64
	// PullEntries / StreamEntries count remote result entries shipped
	// to the initiator under each protocol.
	PullEntries, StreamEntries int64
	// Chunks and EarlyStops are the streaming run's chunk pulls and
	// threshold-triggered stop decisions.
	Chunks, EarlyStops int64
	// PullRecall / StreamRecall are micro-averaged relative recall
	// against the centralized reference.
	PullRecall, StreamRecall float64
	// ParityOK reports whether every draw returned byte-identical
	// (DocID, Score) result lists under both protocols.
	ParityOK bool
}

// TopKResult is the experiment outcome.
type TopKResult struct {
	Points []TopKPoint
	// Draws is the workload length; DistinctQueries how many distinct
	// pool queries the Zipfian draws hit.
	Draws, DistinctQueries int
	// MinReductionPct is the worst cell's byte reduction — the number a
	// regression gate should watch.
	MinReductionPct float64
	// ParityOK is the conjunction over all cells.
	ParityOK bool
}

// TopKConfig parameterizes the experiment.
type TopKConfig struct {
	// CorpusDocs, VocabSize, Strategy, Seed as in Fig3Config.
	CorpusDocs, VocabSize int
	Strategy              Strategy
	Seed                  int64
	// QueryPool is the number of distinct queries (default 12); Draws
	// the Zipfian workload length (default 10× the pool); ZipfS the
	// exponent (default 1.3).
	QueryPool, Draws int
	ZipfS            float64
	// Ks, PeerCounts, ChunkSizes are the sweep axes (defaults
	// {10, 50} × {3, 5} × {8}).
	Ks, PeerCounts, ChunkSizes []int
	// TTL is the directory cache TTL armed in both modes (default 1
	// minute — effectively "never expires" within a run).
	TTL time.Duration
}

func (c *TopKConfig) fillDefaults() {
	if c.CorpusDocs <= 0 {
		c.CorpusDocs = 20000
	}
	if c.VocabSize <= 0 {
		c.VocabSize = c.CorpusDocs / 4
	}
	if c.Strategy.F == 0 && c.Strategy.Fragments == 0 {
		c.Strategy = Strategy{Fragments: 20, R: 4, Offset: 2}
	}
	if c.QueryPool <= 0 {
		c.QueryPool = 12
	}
	if c.Draws <= 0 {
		c.Draws = 10 * c.QueryPool
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{10, 50}
	}
	if len(c.PeerCounts) == 0 {
		c.PeerCounts = []int{3, 5}
	}
	if len(c.ChunkSizes) == 0 {
		c.ChunkSizes = []int{8}
	}
	if c.TTL <= 0 {
		c.TTL = time.Minute
	}
}

// topKRun is one protocol pass over the workload: the per-draw result
// lists (for parity), the recall tally, and the counter snapshot.
type topKRun struct {
	results      [][]ir.Result
	found, total int
	snap         telemetry.Snapshot
	entries      int64
}

// TopK runs the Zipfian workload under pull-everything and streaming
// for every sweep cell and returns the paired measurements.
func TopK(cfg TopKConfig) (*TopKResult, error) {
	cfg.fillDefaults()
	corpus := dataset.Generate(dataset.CorpusConfig{
		NumDocs:   cfg.CorpusDocs,
		VocabSize: cfg.VocabSize,
		Seed:      cfg.Seed,
	})
	cols, err := cfg.Strategy.assign(corpus)
	if err != nil {
		return nil, err
	}
	pool := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: cfg.QueryPool, Seed: cfg.Seed})
	if len(pool) == 0 {
		return nil, fmt.Errorf("eval: topk workload has no queries")
	}
	// One shared Zipfian draw sequence replayed by every cell and mode.
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(pool)-1))
	draws := make([]int, cfg.Draws)
	distinct := map[int]struct{}{}
	for i := range draws {
		draws[i] = int(zipf.Uint64())
		distinct[draws[i]] = struct{}{}
	}
	registry := telemetry.NewRegistry()
	net, err := minerva.BuildNetwork(transport.NewInMem(), corpus, cols, minerva.Config{
		SynopsisSeed:      uint64(cfg.Seed) + 99,
		DirectoryCacheTTL: cfg.TTL,
		Metrics:           registry,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: topk deploy: %w", err)
	}
	defer net.Close()
	initiator := net.Peers[0]
	// Pre-warm the directory cache so neither mode pays cold synopsis
	// fetches inside the measured window.
	for di := range distinct {
		if _, err := initiator.Search(pool[di].Terms, minerva.SearchOptions{K: 10, MaxPeers: cfg.PeerCounts[0]}); err != nil {
			return nil, fmt.Errorf("eval: topk warmup query %d: %w", pool[di].ID, err)
		}
	}
	run := func(opts minerva.SearchOptions, k int) (*topKRun, error) {
		registry.Reset()
		out := &topKRun{results: make([][]ir.Result, 0, len(draws))}
		for _, di := range draws {
			q := pool[di]
			ref := net.ReferenceTopK(q.Terms, k, false)
			sr, err := initiator.Search(q.Terms, opts)
			if err != nil {
				return nil, fmt.Errorf("eval: topk query %d: %w", q.ID, err)
			}
			out.results = append(out.results, sr.Results)
			for _, n := range sr.PerPeer {
				out.entries += int64(n)
			}
			got := map[uint64]struct{}{}
			for _, r := range sr.Results {
				got[r.DocID] = struct{}{}
			}
			for _, r := range ref {
				out.total++
				if _, ok := got[r.DocID]; ok {
					out.found++
				}
			}
		}
		out.snap = registry.Snapshot()
		return out, nil
	}
	recall := func(r *topKRun) float64 {
		if r.total == 0 {
			return 0
		}
		return float64(r.found) / float64(r.total)
	}
	res := &TopKResult{Draws: cfg.Draws, DistinctQueries: len(distinct), ParityOK: true}
	for _, k := range cfg.Ks {
		for _, peers := range cfg.PeerCounts {
			for _, chunk := range cfg.ChunkSizes {
				// MergeK pinned to k in both modes: the streaming merge
				// depth is MergeK, so pull must truncate to the same
				// depth for the per-draw lists to be comparable.
				pull, err := run(minerva.SearchOptions{K: k, MaxPeers: peers, MergeK: k}, k)
				if err != nil {
					return nil, err
				}
				stream, err := run(minerva.SearchOptions{
					K: k, MaxPeers: peers, MergeK: k,
					TopKStreaming: true, ChunkSize: chunk,
				}, k)
				if err != nil {
					return nil, err
				}
				point := TopKPoint{
					K: k, MaxPeers: peers, ChunkSize: chunk,
					PullBytesIn:    pull.snap.Counters["transport.bytes_in"],
					StreamBytesIn:  stream.snap.Counters["transport.bytes_in"],
					PullBytesOut:   pull.snap.Counters["transport.bytes_out"],
					StreamBytesOut: stream.snap.Counters["transport.bytes_out"],
					PullEntries:    pull.entries,
					StreamEntries:  stream.snap.Counters["topk.stream_entries"],
					Chunks:         stream.snap.Counters["topk.chunks"],
					EarlyStops:     stream.snap.Counters["topk.early_stops"],
					PullRecall:     recall(pull),
					StreamRecall:   recall(stream),
					ParityOK:       true,
				}
				for i := range pull.results {
					if !equalResults(pull.results[i], stream.results[i]) {
						point.ParityOK = false
						res.ParityOK = false
						break
					}
				}
				if point.PullBytesIn > 0 {
					point.BytesReductionPct = 100 * (1 - float64(point.StreamBytesIn)/float64(point.PullBytesIn))
				}
				if len(res.Points) == 0 || point.BytesReductionPct < res.MinReductionPct {
					res.MinReductionPct = point.BytesReductionPct
				}
				res.Points = append(res.Points, point)
			}
		}
	}
	return res, nil
}

// equalResults compares two merged result lists entry by entry —
// parity demands identical documents in identical order at identical
// scores, not merely overlapping doc sets.
func equalResults(a, b []ir.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TopKTable renders the sweep as an aligned text table.
func TopKTable(res *TopKResult) string {
	out := fmt.Sprintf("# Incremental top-k: %d Zipfian draws over %d distinct queries, pull vs streaming\n",
		res.Draws, res.DistinctQueries)
	out += fmt.Sprintf("%4s %6s %6s %12s %12s %8s %9s %9s %7s %7s %7s %7s\n",
		"k", "peers", "chunk", "pull-bytes", "strm-bytes", "saved%", "pull-ent", "strm-ent", "chunks", "stops", "recall", "parity")
	for _, p := range res.Points {
		parity := "ok"
		if !p.ParityOK {
			parity = "DIFFER"
		}
		out += fmt.Sprintf("%4d %6d %6d %12d %12d %7.1f%% %9d %9d %7d %7d %7.3f %7s\n",
			p.K, p.MaxPeers, p.ChunkSize, p.PullBytesIn, p.StreamBytesIn, p.BytesReductionPct,
			p.PullEntries, p.StreamEntries, p.Chunks, p.EarlyStops, p.StreamRecall, parity)
	}
	out += fmt.Sprintf("worst-cell bytes-in reduction: %.1f%% (results byte-identical: %v)\n",
		res.MinReductionPct, res.ParityOK)
	return out
}
