package minerva

import (
	"reflect"
	"testing"
	"time"

	"iqn/internal/directory"
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
