package minerva

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// warmStreamNetwork is the production search configuration on a fixed
// in-memory network: directory read cache, whole-search coalescing and
// threshold streaming over 20 overlapping peers. It returns the
// network, one multi-term query and the options every search uses.
func warmStreamNetwork(t testing.TB) (*Network, []string, SearchOptions) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, Config{
		SynopsisSeed:      7,
		DirectoryCacheTTL: time.Hour,
		SearchCoalescing:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	var terms []string
	for _, q := range dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 8, Seed: 11}) {
		if len(q.Terms) > len(terms) {
			terms = q.Terms
		}
	}
	opts := SearchOptions{K: 20, MergeK: 20, MaxPeers: 5, TopKStreaming: true, ChunkSize: 16}
	return net, terms, opts
}

// TestSearchAllocsCeiling bounds what a warm search allocates in the
// production configuration, the remote peers' serving included: with
// the PeerLists and their synopses cached and the working set pooled,
// what is left is per search (the plan, frames, the merged list), not
// per candidate or per entry. A search here made 228 allocations before
// candidates, their term maps and the merge table were reused, 115
// after, 50 once routing reused the working set's Router, the fan-out
// its workers, and the coalescing key stopped being formatted, and 47
// once the coalescing flight was pooled.
func TestSearchAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under -race")
	}
	net, terms, opts := warmStreamNetwork(t)
	p := net.Peers[0]
	if _, err := p.Search(terms, opts); err != nil { // warms the cache and the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := p.Search(terms, opts); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 62
	t.Logf("%d-term warm search: %.0f allocations (ceiling %d)", len(terms), allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("a warm search made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkSearchWarmStream times one warm search in the production
// configuration: every PeerList and decoded synopsis is cached, so the
// search is candidate assembly, routing, streaming and the merge.
func BenchmarkSearchWarmStream(b *testing.B) {
	net, terms, opts := warmStreamNetwork(b)
	p := net.Peers[0]
	if _, err := p.Search(terms, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Search(terms, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// scribble overwrites every byte of a working set a later search could
// read — each slice stretched to its full capacity, every map, the
// coordinator's buffers — with junk.
func scribble(s *searchScratch) {
	junk := core.PeerID("scribbled")
	junkCand := func(c *core.Candidate) {
		c.Peer, c.Quality = junk, math.NaN()
		if c.TermSynopses != nil {
			for term := range c.TermSynopses {
				c.TermSynopses[term] = nil
			}
			c.TermSynopses["scribbled"] = nil
		}
		if c.TermCardinalities != nil {
			for term := range c.TermCardinalities {
				c.TermCardinalities[term] = math.NaN()
			}
			c.TermCardinalities["scribbled"] = math.NaN()
		}
		if c.TermHistograms != nil {
			c.TermHistograms["scribbled"] = nil
		}
	}
	s.cands = s.cands[:cap(s.cands)]
	for i := range s.cands {
		junkCand(&s.cands[i])
	}
	junkCand(&s.self)
	s.reached = s.reached[:cap(s.reached)]
	for i := range s.reached {
		junkCand(&s.reached[i])
	}
	s.bounds = s.bounds[:cap(s.bounds)]
	for i := range s.bounds {
		s.bounds[i] = math.NaN()
	}
	for _, h := range s.hists {
		if h != nil {
			h["scribbled"] = nil
		}
	}
	for _, m := range []map[string]int{s.collFreq, s.docFreq} {
		if m != nil {
			m["scribbled"] = -1
		}
	}
	s.names = s.names[:cap(s.names)]
	for i := range s.names {
		s.names[i] = "scribbled"
	}
	s.heads = s.heads[:cap(s.heads)]
	clear(s.heads)
	s.lists = s.lists[:cap(s.lists)]
	clear(s.lists)
	s.posts = s.posts[:cap(s.posts)]
	clear(s.posts)
	s.seedTerms = s.seedTerms[:cap(s.seedTerms)]
	for i := range s.seedTerms {
		s.seedTerms[i] = math.MaxInt32
	}
	s.tried = s.tried[:cap(s.tried)]
	for i := range s.tried {
		s.tried[i] = true
	}
	s.streams = s.streams[:cap(s.streams)]
	for i := range s.streams {
		s.streams[i] = peerStream{peer: junk, gen: 99, failed: true, reached: true, attempts: 99}
	}
	s.batch = s.batch[:cap(s.batch)]
	clear(s.batch)
	s.buf = s.buf[:cap(s.buf)]
	for i := range s.buf {
		s.buf[i] = ir.Result{DocID: math.MaxUint64, Score: math.NaN()}
	}
	s.failed = s.failed[:cap(s.failed)]
	for i := range s.failed {
		s.failed[i] = math.MaxInt32
	}
	r := &s.round
	r.out = r.out[:cap(r.out)]
	for i := range r.out {
		r.out[i] = chunkOutcome{attempts: 99, err: errors.New("scribbled")}
	}
	r.offsets = r.offsets[:cap(r.offsets)]
	for i := range r.offsets {
		r.offsets[i] = -7
	}
	r.batch = r.batch[:cap(r.batch)]
	clear(r.batch)
	r.spans = r.spans[:cap(r.spans)]
	clear(r.spans)
	// The coordinator's source buffers and merge table, via its own API:
	// junk sources reuse every spare slot and fill the table.
	junkList := make([]ir.Result, 512)
	for i := range junkList {
		junkList[i] = ir.Result{DocID: uint64(1<<40 + i), Score: float64(len(junkList) - i)}
	}
	s.coord.Reset(1)
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("scribbled-%d", i)
		s.coord.AddSource(id, 0)
		s.coord.Offer(id, junkList, false)
	}
}

// TestSearchWorkingSetOwnership is the ownership rule of the pooled
// working set: a coalesced burst of searches (followers share the
// leader's SearchResult) returns results, and then every working set
// the pool ever handed out is scribbled over. Every returned result
// must still equal a sequential search of the same query, which itself
// runs on the scribbled working sets — so nothing returned aliases
// pooled memory, and nothing a search reads survives from an earlier
// one.
func TestSearchWorkingSetOwnership(t *testing.T) {
	reg := telemetry.NewRegistry()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1500, VocabSize: 1200, Seed: 23})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	slow := &slowNet{Network: transport.NewInMem()}
	net, err := BuildNetwork(slow, corpus, cols, Config{
		SynopsisSeed:      5,
		HistogramCells:    4,
		DirectoryCacheTTL: time.Hour,
		SearchCoalescing:  true,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	initiator := net.Peers[0]
	var mu sync.Mutex
	var sets []*searchScratch
	initiator.scratch.New = func() any {
		s := new(searchScratch)
		mu.Lock()
		sets = append(sets, s)
		mu.Unlock()
		return s
	}
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 23})
	variants := []SearchOptions{
		{K: 20, MergeK: 20, MaxPeers: 4, TopKStreaming: true, ChunkSize: 4},
		{K: 20, MaxPeers: 3},
		{K: 10, MergeK: 10, MaxPeers: 4, UseHistograms: true, Conjunctive: true, TopKStreaming: true, ChunkSize: 3},
	}
	type call struct {
		terms []string
		opts  SearchOptions
	}
	var calls []call
	for _, q := range queries {
		for _, opts := range variants {
			calls = append(calls, call{q.Terms, opts})
		}
	}
	slow.delay.Store(int64(5 * time.Millisecond))
	const dup = 3
	results := make([]*SearchResult, dup*len(calls))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := calls[i%len(calls)]
			results[i], errs[i] = initiator.Search(c.terms, c.opts)
		}(i)
	}
	wg.Wait()
	slow.delay.Store(0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if reg.Snapshot().Counters["search.coalesced"] == 0 {
		t.Fatal("no search was coalesced: the burst did not share results")
	}
	mu.Lock()
	for _, s := range sets {
		scribble(s)
	}
	t.Logf("%d searches over %d working sets", len(results), len(sets))
	mu.Unlock()
	for i, c := range calls {
		want, err := initiator.Search(c.terms, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(results); j += len(calls) {
			got := results[j]
			if !reflect.DeepEqual(got.Results, want.Results) ||
				!reflect.DeepEqual(got.Plan, want.Plan) ||
				!reflect.DeepEqual(got.PerPeer, want.PerPeer) ||
				!reflect.DeepEqual(got.Errors, want.Errors) ||
				!reflect.DeepEqual(got.Rerouted, want.Rerouted) ||
				got.Candidates != want.Candidates || got.BudgetExpired != want.BudgetExpired {
				t.Fatalf("query %v %+v: burst result %d differs from the sequential search after scribbling:\n got  %+v\n want %+v",
					c.terms, c.opts, j, got, want)
			}
		}
	}
}
