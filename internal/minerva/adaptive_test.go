package minerva

import (
	"testing"

	"iqn/internal/adapt"
	"iqn/internal/core"
	"iqn/internal/telemetry"
)

// TestAdaptivePriorWarmsAcrossRepeatedSearches exercises the full
// adaptive loop through the public Search path: the first search misses
// the (empty) log and records itself, the second resolves an exact
// cluster hit, and the resulting prior boosts exactly the peers that
// contributed merged top-k entries the first time.
func TestAdaptivePriorWarmsAcrossRepeatedSearches(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed: 7,
		Metrics:      reg,
		Adaptive:     &adapt.Config{},
	})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 4}

	res, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("cold search returned nothing")
	}
	store := initiator.Adaptive()
	if store == nil {
		t.Fatal("Config.Adaptive set but store is nil")
	}
	if got := store.Clusters(); got != 1 {
		t.Fatalf("%d clusters after one search, want 1", got)
	}
	if v := reg.Counter("adapt.prior_misses").Value(); v != 1 {
		t.Fatalf("adapt.prior_misses = %d after cold search, want 1", v)
	}
	if v := reg.Counter("adapt.records").Value(); v != 1 {
		t.Fatalf("adapt.records = %d after cold search, want 1", v)
	}

	res2, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Results) == 0 {
		t.Fatal("warm search returned nothing")
	}
	if v := reg.Counter("adapt.prior_hits").Value(); v != 1 {
		t.Fatalf("adapt.prior_hits = %d after warm search, want 1", v)
	}
	if v := reg.Counter("adapt.records").Value(); v != 2 {
		t.Fatalf("adapt.records = %d after two searches, want 2", v)
	}

	prior, info := store.Prior(q.Terms)
	if !info.Hit || !info.Exact {
		t.Fatalf("prior lookup: hit=%v exact=%v, want exact hit", info.Hit, info.Exact)
	}
	if prior == nil {
		t.Fatal("exact cluster hit returned nil prior")
	}
	boosted := 0
	for peer, n := range res.PerPeer {
		if string(peer) == initiator.Name() || n == 0 {
			continue
		}
		if f := prior(peer); f > 1 {
			boosted++
		} else if f < 1 {
			t.Fatalf("unflagged peer %s got prior %v < 1", peer, f)
		}
	}
	if boosted == 0 {
		t.Fatal("no contributing remote peer boosted by the warm prior")
	}
	if f := prior(core.PeerID("never-seen")); f != 1 {
		t.Fatalf("unseen peer prior = %v, want neutral 1", f)
	}
}

// TestAdaptiveDownweightsInflatedPublisher stages the adversary the
// divergence detector exists for: a peer republishes directory posts
// with ListLength and MaxScore inflated 50× (boosting its CORI quality
// and its claimed score ceiling) while its index — and so what it can
// actually deliver — is unchanged. The delivered-vs-claimed max-score
// ratio collapses, the detector flags the peer, and the prior's
// downweight pushes it back out of the routing plan.
func TestAdaptiveDownweightsInflatedPublisher(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed: 7,
		Metrics:      reg,
		Adaptive:     &adapt.Config{MinObservations: 2},
	})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3}

	base, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Plan.Peers) == 0 {
		t.Fatal("baseline plan is empty")
	}
	victimID := base.Plan.Peers[0]
	var victim *Peer
	for _, p := range net.Peers {
		if p.Name() == string(victimID) {
			victim = p
		}
	}
	if victim == nil {
		t.Fatalf("planned peer %s not in network", victimID)
	}

	posts, err := victim.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	for i := range posts {
		posts[i].ListLength *= 50
		posts[i].MaxScore *= 50
		posts[i].Epoch = 1
	}
	if _, err := victim.Directory().Publish(posts); err != nil {
		t.Fatal(err)
	}

	// The inflated claims keep the victim selected; each answered search
	// feeds the detector one delivered-vs-claimed sample.
	for i := 0; i < 3; i++ {
		res, err := initiator.Search(q.Terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatalf("search %d degraded: %+v", i, res.Errors)
		}
	}
	flagged := initiator.Adaptive().Flagged()
	if reason := flagged[victimID]; reason != "maxscore" {
		t.Fatalf("victim %s flagged as %q, want \"maxscore\" (flagged set: %v)", victimID, reason, flagged)
	}
	if v := reg.Counter("adapt.flagged").Value(); v < 1 {
		t.Fatalf("adapt.flagged = %d, want ≥ 1", v)
	}
	for peer := range flagged {
		if peer != victimID {
			t.Fatalf("honest peer %s flagged (%s)", peer, flagged[peer])
		}
	}

	prior, _ := initiator.Adaptive().Prior(q.Terms)
	if prior == nil {
		t.Fatal("nil prior with a flagged peer on record")
	}
	if f := prior(victimID); f >= 1 {
		t.Fatalf("flagged peer prior = %v, want < 1", f)
	}

	after, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range after.Plan.Peers {
		if peer == victimID {
			t.Fatalf("flagged peer %s still planned: %v", victimID, after.Plan.Peers)
		}
	}
	if len(after.Results) == 0 {
		t.Fatal("post-downweight search returned nothing")
	}
}

// TestAdaptiveStreamingRecordsDeliveries confirms the streaming path
// feeds the adaptive log too: deliveries come from pulled chunks, and
// repeated streamed searches produce the same exact-hit warm prior the
// pull path does.
func TestAdaptiveStreamingRecordsDeliveries(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{
		SynopsisSeed: 7,
		Metrics:      reg,
		Adaptive:     &adapt.Config{},
	})
	initiator := net.Peers[0]
	q := queries[1]
	opts := SearchOptions{K: 20, MaxPeers: 4, TopKStreaming: true, ChunkSize: 4}

	for i := 0; i < 2; i++ {
		res, err := initiator.Search(q.Terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) == 0 {
			t.Fatalf("streamed search %d returned nothing", i)
		}
	}
	if v := reg.Counter("adapt.records").Value(); v != 2 {
		t.Fatalf("adapt.records = %d after two streamed searches, want 2", v)
	}
	if v := reg.Counter("adapt.prior_hits").Value(); v != 1 {
		t.Fatalf("adapt.prior_hits = %d, want 1", v)
	}
	prior, info := initiator.Adaptive().Prior(q.Terms)
	if !info.Hit || prior == nil {
		t.Fatalf("streamed log produced no warm prior (hit=%v)", info.Hit)
	}
}
