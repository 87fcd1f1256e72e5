package minerva

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqn/internal/dataset"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// slowNet delays every RPC once armed, widening the in-flight window so
// concurrent duplicate searches reliably overlap and coalesce. It starts
// disarmed, so building the network over it costs no delay.
type slowNet struct {
	transport.Network
	delay atomic.Int64 // nanoseconds
}

func (s *slowNet) Call(addr, method string, req []byte) ([]byte, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.Network.Call(addr, method, req)
}

func TestSearchCoalescingSharesExecution(t *testing.T) {
	reg := telemetry.NewRegistry()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1500, VocabSize: 1200, Seed: 23})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	slow := &slowNet{Network: transport.NewInMem()}
	net, err := BuildNetwork(slow, corpus, cols,
		Config{SynopsisSeed: 5, SearchCoalescing: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	slow.delay.Store(int64(10 * time.Millisecond))
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 1, Seed: 23})
	terms := queries[0].Terms
	opts := SearchOptions{K: 20, MaxPeers: 3}
	initiator := net.Peers[0]

	const callers = 8
	results := make([]*SearchResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = initiator.Search(terms, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(results[i].Results) == 0 {
			t.Fatalf("caller %d got no results", i)
		}
		// Followers share the leader's execution, so every field that
		// describes the outcome must be identical across callers.
		if !reflect.DeepEqual(results[i].Results, results[0].Results) ||
			!reflect.DeepEqual(results[i].Plan.Peers, results[0].Plan.Peers) ||
			results[i].Candidates != results[0].Candidates {
			t.Fatalf("caller %d diverged from caller 0", i)
		}
	}
	snap := reg.Snapshot()
	coalesced := snap.Counters["search.coalesced"]
	if coalesced == 0 {
		t.Fatal("no search was coalesced despite 8 identical concurrent callers")
	}
	if got := snap.Counters["search.queries"]; got != callers {
		t.Fatalf("search.queries = %d, want %d (followers still count)", got, callers)
	}

	// Coalescing is not caching: a duplicate issued after the flight
	// finished executes fresh — and is the sequential reference the
	// burst must be indistinguishable from.
	seq, err := initiator.Search(terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters["search.coalesced"]
	if after != coalesced {
		t.Fatalf("sequential re-run coalesced (counter %d -> %d)", coalesced, after)
	}
	if !reflect.DeepEqual(seq.Results, results[0].Results) || !reflect.DeepEqual(seq.Plan.Peers, results[0].Plan.Peers) {
		t.Fatal("coalesced burst diverged from the sequential search")
	}
}

func TestCoalesceKeyDiscriminates(t *testing.T) {
	base := SearchOptions{K: 20, MaxPeers: 3, Method: MethodIQN}
	terms := []string{"alpha", "beta"}
	if coalesceKey(terms, base) != coalesceKey([]string{"alpha", "beta"}, base) {
		t.Fatal("identical inputs produced different keys")
	}
	// Every result-affecting option must split the key.
	variants := []SearchOptions{}
	for _, mut := range []func(*SearchOptions){
		func(o *SearchOptions) { o.K = 10 },
		func(o *SearchOptions) { o.MergeK = 5 },
		func(o *SearchOptions) { o.MaxPeers = 4 },
		func(o *SearchOptions) { o.Method = MethodCORI },
		func(o *SearchOptions) { o.Conjunctive = true },
		func(o *SearchOptions) { o.UseHistograms = true },
		func(o *SearchOptions) { o.NoveltyOnly = true },
		func(o *SearchOptions) { o.CandidateLimit = 7 },
		func(o *SearchOptions) { o.DisableSelf = true },
		func(o *SearchOptions) { o.NoReroute = true },
		func(o *SearchOptions) { o.Budget = time.Second },
		func(o *SearchOptions) { o.Retry.MaxAttempts = 3 },
		func(o *SearchOptions) { o.Retry.Seed = 99 },
	} {
		o := base
		mut(&o)
		variants = append(variants, o)
	}
	seen := map[flightKey]int{coalesceKey(terms, base): -1}
	for i, o := range variants {
		k := coalesceKey(terms, o)
		if j, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d share a key", i, j)
		}
		seen[k] = i
	}
	if coalesceKey([]string{"alpha"}, base) == coalesceKey([]string{"beta"}, base) {
		t.Fatal("different terms share a key")
	}
	// The pacing-only retry sleep hook must NOT split the key: a
	// duplicate differing only there still shares the execution.
	o := base
	o.Retry.Sleep = func(time.Duration) {}
	if coalesceKey(terms, o) != coalesceKey(terms, base) {
		t.Fatal("Retry.Sleep split the coalescing key")
	}
}

// TestCoalesceKeyCollisionFree: searches that differ only in how their
// terms split, or whose term spells out another search's options, get
// different keys and so never coalesce — a key that joined the terms
// with a separator and formatted the options after them gave the first
// pair one key. A key for a query of up to four terms allocates nothing.
func TestCoalesceKeyCollisionFree(t *testing.T) {
	o := SearchOptions{K: 20}
	forged := o
	forged.K = 10
	four := []string{"a", "b", "c", "d"}
	pairs := []struct {
		a, b   []string
		oa, ob SearchOptions
	}{
		{[]string{"a", "b"}, []string{"a\x1fb"}, o, o},
		{[]string{"a\x00k=10"}, []string{"a"}, o, forged},
		{[]string{"a\x00k=10 mk=0"}, []string{"a"}, forged, forged},
		{append(four, "ab", "c"), append(four, "a", "bc"), o, o},
		{append(four, "2:ab"), append(four, "2:a", "b"), o, o},
		{append(four, "e"), four, o, o},
	}
	for i, p := range pairs {
		if coalesceKey(p.a, p.oa) == coalesceKey(p.b, p.ob) {
			t.Errorf("pair %d: %q and %q share a coalescing key", i, p.a, p.b)
		}
	}
	if coalesceKey(append(four, "e", "f"), o) != coalesceKey([]string{"a", "b", "c", "d", "e", "f"}, o) {
		t.Error("identical six-term queries produced different keys")
	}
	if raceEnabled {
		return // allocation counts do not hold under -race
	}
	var key flightKey
	if allocs := testing.AllocsPerRun(100, func() { key = coalesceKey(four, o) }); allocs != 0 {
		t.Errorf("building a four-term key made %.0f allocations", allocs)
	}
	_ = key
}

// TestSnapshotIsolatedReads races live re-indexing and republication
// against query traffic: queries read one immutable index generation via
// an atomic pointer, so a Maintainer-style publish loop must never block
// or corrupt them. Run under -race this is the isolation certificate.
func TestSnapshotIsolatedReads(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1500, VocabSize: 1200, Seed: 29})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, Config{SynopsisSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 2, Seed: 29})
	target := net.Peers[1]
	docs := cols[1].Docs

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for epoch := int64(1); ; epoch++ {
			select {
			case <-stop:
				return
			default:
			}
			target.IndexCollection(docs)
			if err := target.PublishPostsEpoch(epoch); err != nil {
				t.Errorf("publish epoch %d: %v", epoch, err)
				return
			}
		}
	}()
	var askers sync.WaitGroup
	for w := 0; w < 4; w++ {
		askers.Add(1)
		go func(w int) {
			defer askers.Done()
			for i := 0; i < 10; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := net.Peers[0].Search(q.Terms, SearchOptions{K: 10, MaxPeers: 3})
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if len(res.Results) == 0 {
					t.Errorf("worker %d query %d: empty results mid-churn", w, i)
					return
				}
			}
		}(w)
	}
	askers.Wait()
	close(stop)
	churn.Wait()
}

// TestBuildPostsMemoizedPerGeneration: posts are computed once per index
// generation, epoch stamping never leaks into the memo, and a re-index
// invalidates the memo wholesale.
func TestBuildPostsMemoizedPerGeneration(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 300, VocabSize: 400, Seed: 31})
	cols := dataset.AssignSlidingWindow(corpus, 10, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, Config{SynopsisSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	p := net.Peers[0]
	a, err := p.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("post counts %d vs %d", len(a), len(b))
	}
	// Same generation: the synopsis bytes are the same backing array
	// (memoized), not a recomputation.
	if len(a[0].Synopsis) == 0 || &a[0].Synopsis[0] != &b[0].Synopsis[0] {
		t.Fatal("BuildPosts recomputed synopses within one index generation")
	}
	// Epoch stamping on a publish must not contaminate the shared memo.
	if err := p.PublishPostsEpoch(41); err != nil {
		t.Fatal(err)
	}
	c, err := p.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i].Epoch != 0 {
			t.Fatalf("post %d epoch %d leaked into the memo", i, c[i].Epoch)
		}
	}
	// New generation: memo discarded with its index.
	p.IndexCollection(cols[0].Docs)
	d, err := p.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == 0 {
		t.Fatal("no posts after re-index")
	}
	if &d[0].Synopsis[0] == &a[0].Synopsis[0] {
		t.Fatal("re-index kept the old generation's memoized posts")
	}
}
