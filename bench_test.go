package iqn

// The benchmark harness: one testing.B target per figure of the paper
// plus ablation and micro benchmarks for the design choices DESIGN.md
// calls out. Figure benches run the eval drivers at reduced scale and
// attach the headline quantities as custom metrics (relative errors,
// recall values), so `go test -bench .` both times the pipeline and
// regenerates the result shapes; `cmd/iqnbench` runs the full-scale
// versions.

import (
	"fmt"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/eval"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// --- Figure 2: synopsis accuracy ------------------------------------

func benchFig2Config() eval.Fig2Config {
	return eval.Fig2Config{Runs: 5, Seed: 1, Sizes: []int{1000, 10000, 40000}, FixedSize: 10000}
}

// BenchmarkFig2Left regenerates the left panel of Figure 2 (relative
// error of resemblance estimation vs collection size, 33% overlap) and
// reports each series' error at the largest collection size.
func BenchmarkFig2Left(b *testing.B) {
	b.ReportAllocs()
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		series = eval.Fig2Left(benchFig2Config())
	}
	for _, s := range series {
		if y, ok := s.YAt(40000); ok {
			b.ReportMetric(y, "relerr@40k:"+metricName(s.Name))
		}
	}
}

// BenchmarkFig2Right regenerates the right panel (relative error vs
// mutual overlap at fixed collection size) and reports each series'
// error at 1/3 overlap.
func BenchmarkFig2Right(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig2Config()
	cfg.Overlaps = []float64{1.0 / 2, 1.0 / 3, 1.0 / 9}
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		series = eval.Fig2Right(cfg)
	}
	for _, s := range series {
		if y, ok := s.YAt(1.0 / 3); ok {
			b.ReportMetric(y, "relerr@33%:"+metricName(s.Name))
		}
	}
}

// --- Figure 3: recall vs queried peers -------------------------------

func benchFig3Config(strategy eval.Strategy) eval.Fig3Config {
	return eval.Fig3Config{
		CorpusDocs: 4000,
		VocabSize:  3000,
		Strategy:   strategy,
		Queries:    5,
		K:          40,
		PeerCounts: []int{2, 5},
		Seed:       7,
	}
}

// reportRecall attaches recall at the given peer count for the named
// series.
func reportRecall(b *testing.B, series []eval.Series, peers int, names ...string) {
	b.Helper()
	for _, name := range names {
		s := eval.FindSeries(series, name)
		if s == nil {
			b.Fatalf("series %q missing", name)
		}
		if y, ok := s.YAt(float64(peers)); ok {
			b.ReportMetric(y, fmt.Sprintf("recall@%d:%s", peers, metricName(name)))
		}
	}
}

// BenchmarkFig3Left regenerates the left panel of Figure 3: the
// (6 choose 3) = 20-peer assignment.
func BenchmarkFig3Left(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{F: 6, S: 3})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 2, "CORI", "MIPs 64", "BF 2048")
}

// BenchmarkFig3Right regenerates the right panel: the sliding-window
// assignment with systematic overlap.
func BenchmarkFig3Right(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{Fragments: 40, R: 10, Offset: 2})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 5, "CORI", "MIPs 32", "MIPs 64")
}

// --- Ablations --------------------------------------------------------

// BenchmarkAblationAggregation compares per-peer vs per-term aggregation
// (Section 6).
func BenchmarkAblationAggregation(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{Fragments: 40, R: 10, Offset: 2})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.AblationAggregation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 5, "per-peer disj", "per-term disj")
}

// BenchmarkAblationHistogram compares plain vs score-histogram IQN
// (Section 7.1) at equal budgets.
func BenchmarkAblationHistogram(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{Fragments: 40, R: 10, Offset: 2})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.AblationHistogram(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 5, "IQN plain 2048", "IQN hist 4x512")
}

// BenchmarkAblationBudget compares uniform vs adaptive synopsis lengths
// (Section 7.2).
func BenchmarkAblationBudget(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{Fragments: 40, R: 10, Offset: 2})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.AblationBudget(cfg, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 5, "uniform 1024", "adaptive list-length")
}

// BenchmarkAblationHetero measures MIPs accuracy under heterogeneous
// vector lengths (Section 3.4).
func BenchmarkAblationHetero(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig2Config()
	cfg.Sizes = []int{10000}
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		series = eval.Fig2Hetero(cfg)
	}
	for _, s := range series {
		if y, ok := s.YAt(10000); ok {
			b.ReportMetric(y, "relerr:"+metricName(s.Name))
		}
	}
}

// BenchmarkAblationPrior compares IQN against the SIGIR'05 prior method.
func BenchmarkAblationPrior(b *testing.B) {
	b.ReportAllocs()
	cfg := benchFig3Config(eval.Strategy{Fragments: 40, R: 10, Offset: 2})
	var series []eval.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = eval.AblationPrior(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecall(b, series, 5, "MIPs 64", "Prior(SIGIR05)")
}

// --- Micro benchmarks: the substrate costs ---------------------------

// BenchmarkSynopsisAdd measures insertion cost per synopsis family at
// the paper's 2048-bit budget.
func BenchmarkSynopsisAdd(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range []synopsis.Kind{synopsis.KindMIPs, synopsis.KindBloom, synopsis.KindHashSketch, synopsis.KindSuperLogLog} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			s := synopsis.Config{Kind: kind, Bits: 2048, Seed: 1}.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(uint64(i))
			}
		})
	}
}

// BenchmarkSynopsisResemblance measures the pair-wise estimation cost —
// the inner loop of every IQN iteration.
func BenchmarkSynopsisResemblance(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range []synopsis.Kind{synopsis.KindMIPs, synopsis.KindBloom, synopsis.KindHashSketch, synopsis.KindSuperLogLog} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := synopsis.Config{Kind: kind, Bits: 2048, Seed: 1}
			ids := make([]uint64, 5000)
			for i := range ids {
				ids[i] = uint64(i)
			}
			sa := cfg.FromIDs(ids[:3000])
			sb := cfg.FromIDs(ids[2000:])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sa.Resemblance(sb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIQNRoute measures the routing decision itself (no network):
// 50 candidates, 3-term query, 10 peers selected.
func BenchmarkIQNRoute(b *testing.B) {
	b.ReportAllocs()
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 3}
	terms := []string{"a", "b", "c"}
	var cands []core.Candidate
	for p := 0; p < 50; p++ {
		c := core.Candidate{
			Peer:              core.PeerID(fmt.Sprintf("p%02d", p)),
			Quality:           0.4 + float64(p%7)*0.05,
			TermSynopses:      map[string]synopsis.Set{},
			TermCardinalities: map[string]float64{},
		}
		for ti, t := range terms {
			ids := make([]uint64, 500)
			for i := range ids {
				ids[i] = uint64(p*100 + ti*37 + i) // overlapping ranges
			}
			c.TermSynopses[t] = cfg.FromIDs(ids)
			c.TermCardinalities[t] = 500
		}
		cands = append(cands, c)
	}
	q := core.Query{Terms: terms}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Route(q, nil, cands, core.Options{MaxPeers: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordLookup measures key resolution on a 32-node ring.
func BenchmarkChordLookup(b *testing.B) {
	b.ReportAllocs()
	net := transport.NewInMem()
	var nodes []*chord.Node
	for i := 0; i < 32; i++ {
		n, err := chord.New(fmt.Sprintf("n%02d", i), net, chord.Config{})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	nodes[0].Create()
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join("n00"); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for j := 0; j <= i; j++ {
				nodes[j].Stabilize()
			}
		}
	}
	for r := 0; r < 2*len(nodes); r++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	for _, n := range nodes {
		n.FixAllFingers()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Lookup(fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectoryPublish measures batched synopsis publication — the
// background network cost Section 7.2 is about.
func BenchmarkDirectoryPublish(b *testing.B) {
	b.ReportAllocs()
	net := transport.NewInMem()
	var nodes []*chord.Node
	for i := 0; i < 8; i++ {
		n, err := chord.New(fmt.Sprintf("d%02d", i), net, chord.Config{})
		if err != nil {
			b.Fatal(err)
		}
		directory.NewService(n)
		nodes = append(nodes, n)
	}
	nodes[0].Create()
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join("d00"); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for j := 0; j <= i; j++ {
				nodes[j].Stabilize()
			}
		}
	}
	for r := 0; r < 16; r++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	for _, n := range nodes {
		n.FixAllFingers()
	}
	client := directory.NewClient(nodes[0], 1)
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 1}
	ids := make([]uint64, 200)
	for i := range ids {
		ids[i] = uint64(i)
	}
	syn, err := cfg.FromIDs(ids).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	posts := make([]directory.Post, 200)
	for i := range posts {
		posts[i] = directory.Post{
			Peer: "bench", PeerAddr: "bench", Term: fmt.Sprintf("term-%03d", i),
			ListLength: 200, Synopsis: syn,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Publish(posts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchEndToEnd measures a full distributed search (PeerList
// fetch, IQN routing, forwarding, merging) on a 10-peer network.
func BenchmarkSearchEndToEnd(b *testing.B) {
	b.ReportAllocs()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 9})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	net, err := minerva.BuildNetwork(transport.NewInMem(), corpus, cols, minerva.Config{SynopsisSeed: 9})
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	q := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 1, Seed: 9})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Peers[i%len(net.Peers)].Search(q.Terms, minerva.SearchOptions{K: 20, MaxPeers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressBloom measures the Mitzenmacher wire compression of a
// sparse directory-grade Bloom filter, reporting the realized ratio.
func BenchmarkCompressBloom(b *testing.B) {
	b.ReportAllocs()
	filter := synopsis.NewBloom(1<<15, 2)
	for i := 0; i < 300; i++ {
		filter.Add(uint64(i) * 977)
	}
	plain, err := filter.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var compressed []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compressed, err = synopsis.CompressBloom(filter)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plain))/float64(len(compressed)), "ratio")
}

// --- Zero-alloc synopsis kernels --------------------------------------

// BenchmarkMIPsKernels measures the MIPs hot kernels of the router inner
// loop; all of them must report 0 allocs/op in steady state.
func BenchmarkMIPsKernels(b *testing.B) {
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 1}
	ids := make([]uint64, 5000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	sa := cfg.FromIDs(ids[:3000]).(*synopsis.MIPs)
	sb := cfg.FromIDs(ids[2000:]).(*synopsis.MIPs)
	b.Run("resemblance-detail", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := sa.ResemblanceDetail(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union-in-place", func(b *testing.B) {
		b.ReportAllocs()
		acc := sa.Clone().(*synopsis.MIPs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := acc.UnionTracked(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intersect-in-place", func(b *testing.B) {
		b.ReportAllocs()
		acc := sa.Clone().(*synopsis.MIPs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.IntersectInPlace(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reuse", func(b *testing.B) {
		b.ReportAllocs()
		wire, err := sa.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var dec synopsis.MIPs
		if err := dec.UnmarshalBinary(wire); err != nil {
			b.Fatal(err) // prime the buffer and the shared param cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dec.UnmarshalBinary(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBloomKernels measures the word-level Bloom kernels; all of
// them must report 0 allocs/op.
func BenchmarkBloomKernels(b *testing.B) {
	cfg := synopsis.Config{Kind: synopsis.KindBloom, Bits: 2048, BloomHashes: 4}
	ids := make([]uint64, 5000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	sa := cfg.FromIDs(ids[:3000]).(*synopsis.Bloom)
	sb := cfg.FromIDs(ids[2000:]).(*synopsis.Bloom)
	b.Run("union-in-place", func(b *testing.B) {
		b.ReportAllocs()
		acc := sa.Clone().(*synopsis.Bloom)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.UnionInPlace(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intersect-in-place", func(b *testing.B) {
		b.ReportAllocs()
		acc := sa.Clone().(*synopsis.Bloom)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.IntersectInPlace(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("difference-cardinality", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sa.DifferenceCardinality(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resemblance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sa.Resemblance(sb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// metricName compresses a series name into a metric-safe token.
func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')':
			// skip
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
