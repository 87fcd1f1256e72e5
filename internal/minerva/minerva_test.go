package minerva

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// buildTestNetwork creates a small sliding-window network over a seeded
// corpus: 10 peers with systematic overlap.
func buildTestNetwork(t *testing.T, cfg Config) (*Network, *dataset.Corpus, []dataset.Query) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 4, Seed: 11})
	return net, corpus, queries
}

// fetchTerm reads one term's PeerList through the peer's directory client.
func fetchTerm(p *Peer, term string) (directory.PeerList, error) {
	lists, _, err := p.Directory().FetchAllReportOpts([]string{term}, 0, directory.FetchOptions{})
	return lists[term], err
}

func TestNetworkBootAndPublish(t *testing.T) {
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	if len(net.Peers) != 10 {
		t.Fatalf("%d peers, want 10", len(net.Peers))
	}
	// Every peer must be able to fetch a PeerList for a term it indexed.
	p := net.Peers[3]
	term := p.Index().Terms()[0]
	pl, err := fetchTerm(p, term)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) == 0 {
		t.Fatalf("no posts for %q", term)
	}
	found := false
	for _, post := range pl {
		if post.Peer == p.Name() {
			found = true
			if post.ListLength != p.Index().DocFreq(term) {
				t.Fatalf("posted df %d, index df %d", post.ListLength, p.Index().DocFreq(term))
			}
		}
	}
	if !found {
		t.Fatalf("peer %s missing from PeerList of its own term", p.Name())
	}
}

func TestDistributedSearchFindsResults(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	for _, q := range queries {
		res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
		if err != nil {
			t.Fatalf("query %v: %v", q.Terms, err)
		}
		if len(res.Results) == 0 {
			t.Fatalf("query %v returned nothing", q.Terms)
		}
		if len(res.Plan.Peers) == 0 || len(res.Plan.Peers) > 3 {
			t.Fatalf("plan size %d", len(res.Plan.Peers))
		}
		// Results are ranked.
		for i := 1; i < len(res.Results); i++ {
			if res.Results[i].Score > res.Results[i-1].Score {
				t.Fatal("merged results not sorted")
			}
		}
		// Every result must exist in the reference index (no phantom
		// documents).
		ref := net.ReferenceTopK(q.Terms, 0, false)
		refSet := map[uint64]struct{}{}
		for _, r := range ref {
			refSet[r.DocID] = struct{}{}
		}
		for _, r := range res.Results {
			if _, ok := refSet[r.DocID]; !ok {
				t.Fatalf("result %d not in reference result set", r.DocID)
			}
		}
	}
}

func TestSearchRecallGrowsWithPeers(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	q := queries[0]
	ref := net.ReferenceTopK(q.Terms, 20, false)
	prev := -1.0
	for _, peers := range []int{1, 3, 6, 10} {
		res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: peers})
		if err != nil {
			t.Fatal(err)
		}
		recall := ir.RelativeRecall(res.Results, ref)
		if recall < prev-0.15 {
			t.Fatalf("recall dropped sharply with more peers: %v after %v", recall, prev)
		}
		if recall > prev {
			prev = recall
		}
	}
	// Querying everything must reach high recall.
	res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: len(net.Peers)})
	if err != nil {
		t.Fatal(err)
	}
	if recall := ir.RelativeRecall(res.Results, ref); recall < 0.8 {
		t.Fatalf("recall with all peers = %v, want ≥ 0.8", recall)
	}
}

func TestSearchMethodsDiffer(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	q := queries[0]
	for _, m := range []Method{MethodIQN, MethodCORI, MethodPrior} {
		res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3, Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Plan.Peers) == 0 {
			t.Fatalf("%v: empty plan", m)
		}
	}
}

func TestSearchConjunctive(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	q := queries[0]
	res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 4, Conjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := net.ReferenceTopK(q.Terms, 0, true)
	refSet := map[uint64]struct{}{}
	for _, r := range ref {
		refSet[r.DocID] = struct{}{}
	}
	for _, r := range res.Results {
		if _, ok := refSet[r.DocID]; !ok {
			t.Fatalf("conjunctive result %d not a conjunctive match", r.DocID)
		}
	}
}

func TestSearchWithHistograms(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7, HistogramCells: 4})
	initiator := net.Peers[0]
	res, err := initiator.Search(queries[0].Terms, SearchOptions{K: 20, MaxPeers: 3, UseHistograms: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("histogram search returned nothing")
	}
}

func TestSearchWithAdaptiveBudget(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed:    7,
		TotalBudgetBits: 200_000,
		BudgetPolicy:    core.BenefitListLength,
	})
	initiator := net.Peers[0]
	res, err := initiator.Search(queries[0].Terms, SearchOptions{K: 20, MaxPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("budgeted search returned nothing")
	}
	// Adaptive budgets must produce varying synopsis lengths.
	posts, err := initiator.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	withSynopsis := 0
	for _, post := range posts {
		if len(post.Synopsis) > 0 {
			withSynopsis++
			sizes[len(post.Synopsis)] = true
		}
	}
	if withSynopsis == 0 {
		t.Fatal("no posts carry synopses under budget")
	}
	if len(sizes) < 2 {
		t.Fatalf("budgeted synopsis sizes all equal: %v", sizes)
	}
}

func TestSearchBloomAndHashSketchNetworks(t *testing.T) {
	for _, kind := range []synopsis.Kind{synopsis.KindBloom, synopsis.KindHashSketch} {
		t.Run(kind.String(), func(t *testing.T) {
			net, _, queries := buildTestNetwork(t, Config{SynopsisKind: kind, SynopsisBits: 2048, SynopsisSeed: 7})
			res, err := net.Peers[1].Search(queries[0].Terms, SearchOptions{K: 20, MaxPeers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) == 0 {
				t.Fatal("search returned nothing")
			}
		})
	}
}

func TestSearchSurvivesDeadSelectedPeer(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	q := queries[0]
	// Find out who would be selected, then kill one of them.
	res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := res.Plan.Peers[0]
	if string(victim) == initiator.Name() {
		victim = res.Plan.Peers[1]
	}
	net.Transport.(*transport.InMem).SetPartitioned(string(victim), true)
	// Routing metadata is already in the directory; the search must
	// degrade (skip the dead peer's results), not fail — unless the dead
	// peer owned directory terms, in which case replicas would be needed
	// (not configured here, so accept a directory error as the other
	// legitimate outcome).
	res2, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
	if err != nil {
		t.Logf("search failed after peer death without replication: %v (acceptable)", err)
		return
	}
	if res2.PerPeer[victim] != 0 {
		t.Fatalf("dead peer contributed %d results", res2.PerPeer[victim])
	}
}

func TestSearchEmptyQueryRejected(t *testing.T) {
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	if _, err := net.Peers[0].Search(nil, SearchOptions{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestNetworkWithReplication(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 800, VocabSize: 600, Seed: 13})
	cols := dataset.AssignSlidingWindow(corpus, 10, 3, 2)
	inmem := transport.NewInMem()
	net, err := BuildNetwork(inmem, corpus, cols, Config{SynopsisSeed: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 2, Seed: 13})
	// Kill one peer; with replication the directory must still answer and
	// searches still work from another peer.
	victim := net.Peers[2]
	inmem.SetPartitioned(victim.Name(), true)
	var survivors []*Peer
	for _, p := range net.Peers {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	for round := 0; round < 2*len(survivors); round++ {
		for _, p := range survivors {
			p.Node().Stabilize()
		}
	}
	for _, p := range survivors {
		p.Node().FixAllFingers()
	}
	res, err := survivors[0].Search(queries[0].Terms, SearchOptions{K: 10, MaxPeers: 3})
	if err != nil {
		t.Fatalf("replicated search after failure: %v", err)
	}
	if len(res.Results) == 0 {
		t.Fatal("replicated search returned nothing")
	}
}

func TestPeerListConsistencyAcrossInitiators(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	q := queries[0]
	// Two different initiators must see the same candidate set.
	r1, err := net.Peers[0].Search(q.Terms, SearchOptions{K: 10, MaxPeers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := net.Peers[5].Search(q.Terms, SearchOptions{K: 10, MaxPeers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Candidate counts differ by at most one (each excludes itself).
	if d := r1.Candidates - r2.Candidates; d < -1 || d > 1 {
		t.Fatalf("candidate counts diverge: %d vs %d", r1.Candidates, r2.Candidates)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{MethodIQN: "iqn", MethodCORI: "cori", MethodPrior: "prior"} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestBuildNetworkErrors(t *testing.T) {
	if _, err := BuildNetwork(transport.NewInMem(), nil, nil, Config{}); err == nil {
		t.Fatal("empty network built")
	}
	// Duplicate collection names collide on the transport address.
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 50, Seed: 1})
	cols := []dataset.Collection{
		{Name: "dup", Docs: corpus.Docs[:25]},
		{Name: "dup", Docs: corpus.Docs[25:]},
	}
	if _, err := BuildNetwork(transport.NewInMem(), corpus, cols, Config{}); err == nil {
		t.Fatal("duplicate peer names accepted")
	}
}

func TestTCPNetworkEndToEnd(t *testing.T) {
	// The same engine over real TCP: a small network, one query.
	if testing.Short() {
		t.Skip("tcp end-to-end skipped in -short")
	}
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 400, VocabSize: 400, Seed: 17})
	frags := dataset.AssignSlidingWindow(corpus, 6, 2, 2)
	// Rename collections to loopback addresses.
	tcp := transport.NewTCP()
	defer tcp.CloseIdle()
	for i := range frags {
		frags[i].Name = fmt.Sprintf("127.0.0.1:%d", 39200+i)
	}
	net, err := BuildNetwork(tcp, corpus, frags, Config{SynopsisSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 1, Seed: 17})
	res, err := net.Peers[0].Search(queries[0].Terms, SearchOptions{K: 10, MaxPeers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("TCP search returned nothing")
	}
}

func TestSearchCandidateLimit(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	q := queries[0]
	full, err := net.Peers[0].Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := net.Peers[0].Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3, CandidateLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Candidates > 4 {
		t.Fatalf("candidate limit ignored: %d candidates", trimmed.Candidates)
	}
	if trimmed.Candidates >= full.Candidates {
		t.Fatalf("trimming did not reduce candidates: %d vs %d", trimmed.Candidates, full.Candidates)
	}
	if len(trimmed.Results) == 0 {
		t.Fatal("trimmed search returned nothing")
	}
	// A generous limit keeps everything.
	loose, err := net.Peers[0].Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3, CandidateLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Candidates != full.Candidates {
		t.Fatalf("loose limit changed candidates: %d vs %d", loose.Candidates, full.Candidates)
	}
}

// TestTrimPeerListsMatchesBruteForce checks the candidate trim against a
// rank-counting oracle over random PeerLists with many score ties: a
// peer survives exactly when fewer than limit peers outrank it (higher
// summed score, or equal score and a smaller name), and every list keeps
// the surviving peers' posts in their original order.
func TestTrimPeerListsMatchesBruteForce(t *testing.T) {
	f := func(seed int64, limitRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := int(limitRaw)%8 + 1
		lists := map[string]directory.PeerList{}
		for ti := rng.Intn(4) + 1; ti > 0; ti-- {
			var pl directory.PeerList
			seen := map[string]bool{}
			for i := rng.Intn(30); i > 0; i-- {
				peer := fmt.Sprintf("k%d", rng.Intn(15))
				if !seen[peer] { // one post per peer and term, as the directory stores them
					seen[peer] = true
					pl = append(pl, directory.Post{Peer: peer, Term: fmt.Sprintf("t%d", ti), ListLength: rng.Intn(10) * 10})
				}
			}
			lists[fmt.Sprintf("t%d", ti)] = pl
		}
		terms := make([]string, 0, len(lists))
		for term := range lists {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		score := map[string]float64{}
		for _, term := range terms {
			for _, post := range lists[term] {
				df := float64(post.ListLength)
				score[post.Peer] += df / (df + 200)
			}
		}
		kept := map[string]bool{}
		for peer, s := range score {
			outranked := 0
			for other, o := range score {
				if o > s || (o == s && other < peer) {
					outranked++
				}
			}
			kept[peer] = outranked < limit
		}
		got := trimPeerLists(lists, limit)
		for _, term := range terms {
			var want directory.PeerList
			for _, post := range lists[term] {
				if kept[post.Peer] {
					want = append(want, post)
				}
			}
			if len(got[term]) != len(want) {
				return false
			}
			for i := range want {
				if got[term][i].Peer != want[i].Peer {
					return false
				}
			}
		}
		return len(got) == len(lists)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTrimPeerListsTieBreaksByName pins the order between equal scores:
// the smaller name wins, while a higher score beats any name.
func TestTrimPeerListsTieBreaksByName(t *testing.T) {
	post := func(peer string, df int) directory.Post {
		return directory.Post{Peer: peer, Term: "t", ListLength: df}
	}
	lists := map[string]directory.PeerList{"t": {post("b", 50), post("a", 50), post("c", 50), post("z", 60)}}
	got := trimPeerLists(lists, 3)["t"]
	var names []string
	for _, p := range got {
		names = append(names, p.Peer)
	}
	if want := []string{"b", "a", "z"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("kept %v, want %v", names, want)
	}
}

func TestSearchUnknownTerms(t *testing.T) {
	// A query no peer has any posts for: empty candidate set, plan, and
	// results (plus whatever the initiator holds locally — nothing here).
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	res, err := net.Peers[0].Search([]string{"zzzznonexistent"}, SearchOptions{K: 10, MaxPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 0 || len(res.Plan.Peers) != 0 || len(res.Results) != 0 {
		t.Fatalf("unknown-term search = %+v", res)
	}
}

func TestPeerReachable(t *testing.T) {
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	p := net.Peers[4]
	if !p.Reachable() {
		t.Fatal("live peer not reachable")
	}
	net.Transport.(*transport.InMem).SetPartitioned(p.Name(), true)
	if p.Reachable() {
		t.Fatal("partitioned peer reachable")
	}
}
