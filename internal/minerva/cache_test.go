package minerva

import (
	"reflect"
	"testing"
	"time"

	"iqn/internal/core"
	"iqn/internal/directory"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
)

// cacheReadRPCs counts the directory read RPCs sent.
func cacheReadRPCs(r *telemetry.Registry) int64 {
	return r.Snapshot().Counters["directory.rpc."+directory.MethodGet]
}

func TestSearchServedFromDirectoryCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed:      7,
		Metrics:           reg,
		DirectoryCacheTTL: time.Minute,
	})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3}
	first, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cacheReadRPCs(reg)
	second, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheReadRPCs(reg); got != warm {
		t.Fatalf("repeated query issued directory RPCs (%d → %d)", warm, got)
	}
	if hits := reg.Snapshot().Counters["directory.cache_hits"]; hits < int64(len(q.Terms)) {
		t.Fatalf("cache_hits = %d, want ≥ %d", hits, len(q.Terms))
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached search returned different results")
	}
	if !reflect.DeepEqual(first.Plan.Peers, second.Plan.Peers) {
		t.Fatal("cached search planned different peers")
	}
	// Synopsis decoding must be memoized across the two queries.
	snap := reg.Snapshot().Counters
	if snap["directory.cache_synopsis_reuse"] == 0 {
		t.Fatal("second query re-decoded every synopsis")
	}
	// A Fresh read bypasses the cache.
	if _, _, err := initiator.Directory().FetchAllReportOpts(q.Terms, 0, directory.FetchOptions{Fresh: true}); err != nil {
		t.Fatal(err)
	}
	if got := cacheReadRPCs(reg); got == warm {
		t.Fatal("a Fresh read did not re-read the directory")
	}
}

// TestMaintenanceRoundInvalidatesCaches drives churn through the full
// maintenance path (republish at a higher epoch + prune) and checks a
// caching peer never serves the pre-churn directory state.
func TestMaintenanceRoundInvalidatesCaches(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed:      7,
		Replicas:          2,         // terms owned by the dead peer survive on a replica
		DirectoryCacheTTL: time.Hour, // only invalidation can refresh within the test
	})
	initiator := net.Peers[0]
	q := queries[0]
	if _, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3}); err != nil {
		t.Fatal(err)
	}
	// Kill a peer, then run a maintenance round at a higher epoch: live
	// peers republish, the dead peer's posts are pruned.
	dead := net.Peers[5]
	deadName := dead.Name()
	dead.Close()
	if dropped := net.MaintenanceRound(1); dropped == 0 {
		t.Fatal("maintenance round pruned nothing")
	}
	res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range res.Plan.Peers {
		if string(peer) == deadName {
			t.Fatalf("cached directory state still routed to pruned peer %s", deadName)
		}
	}
	// The initiator's own PeerLists must reflect the prune through the
	// cache, too: no post of the dead peer below the floor.
	term := q.Terms[0]
	pl, err := fetchTerm(initiator, term)
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range pl {
		if post.Peer == deadName {
			t.Fatalf("fetch of %q served the dead peer's post from cache", term)
		}
		if post.Epoch < 1 {
			t.Fatalf("fetch of %q served a below-floor post (epoch %d)", term, post.Epoch)
		}
	}
}

// TestSearchLeavesSharedSynopsesUntouched guards the ownership rule of
// Aggregate-Synopses: routing folds unions and intersections in place,
// so it must fold only into clones and references it built itself. The
// synopses a search reads are shared — the directory cache decodes each
// post once per epoch, and the peer memoises its own per index
// generation — and must come out of a batch of searches byte-identical
// (and still be the instances the next search reads), under per-peer
// and per-term aggregation, disjunctive and conjunctive queries, with
// and without score histograms.
func TestSearchLeavesSharedSynopsesUntouched(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed:      7,
		HistogramCells:    4,
		DirectoryCacheTTL: time.Hour,
	})
	p := net.Peers[0]
	var terms []string
	multi := 0
	for _, q := range queries {
		terms = append(terms, q.Terms...)
		if len(q.Terms) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-term query: nothing is aggregated")
	}
	lists, _, err := p.Directory().FetchAllReportOpts(terms, 0, directory.FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.snap.Load()
	scfg := p.cfg.synopsisConfig(p.cfg.bits())
	shared := map[string]synopsis.Set{}
	for term, pl := range lists {
		for _, post := range pl {
			set, err := p.Directory().DecodedSynopsis(post)
			if err != nil {
				t.Fatal(err)
			}
			shared["dir "+term+" "+post.Peer] = set
		}
		if set, _ := snap.selfSynopsis(term, scfg); set != nil {
			shared["self "+term] = set
		}
	}
	selfs := 0
	for term := range lists {
		if shared["self "+term] != nil {
			selfs++
		}
	}
	if selfs == 0 || len(shared) == selfs {
		t.Fatalf("%d shared synopses, %d of them the peer's own: want both kinds", len(shared), selfs)
	}
	encode := func() map[string][]byte {
		out := make(map[string][]byte, len(shared))
		for key, set := range shared {
			b, err := set.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out[key] = b
		}
		return out
	}
	before := encode()
	searches := 0
	for _, agg := range []core.AggregationMode{core.PerPeer, core.PerTerm} {
		for _, conj := range []bool{false, true} {
			for _, hist := range []bool{false, true} {
				for _, q := range queries {
					opts := SearchOptions{K: 20, MaxPeers: 4, Aggregation: agg, Conjunctive: conj, UseHistograms: hist}
					if _, err := p.Search(q.Terms, opts); err != nil {
						t.Fatal(err)
					}
					searches++
				}
			}
		}
	}
	after := encode()
	for key := range before {
		if !reflect.DeepEqual(before[key], after[key]) {
			t.Errorf("%d searches modified shared synopsis %s", searches, key)
		}
	}
	// The searches must have read these very instances: the decode memo
	// and the self-synopsis memo still hand them out.
	for term, pl := range lists {
		for _, post := range pl {
			if set, _ := p.Directory().DecodedSynopsis(post); set != shared["dir "+term+" "+post.Peer] {
				t.Fatalf("decode memo of %s/%s was replaced; the check above is vacuous", term, post.Peer)
			}
		}
		if set, _ := snap.selfSynopsis(term, scfg); set != shared["self "+term] {
			t.Fatalf("self-synopsis memo of %s was replaced; the check above is vacuous", term)
		}
	}
}
