package minerva

import (
	"testing"

	"iqn/internal/chord"
	"iqn/internal/dataset"
	"iqn/internal/transport"
)

// TestLiveJoinAcquiresRangeBeforeVisibility: a peer joining a running
// network must pull its directory range before it becomes routable, so
// a fetch that lands on the newcomer immediately after its first
// stabilize finds the posts already there.
func TestLiveJoinAcquiresRangeBeforeVisibility(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1200, VocabSize: 900, Seed: 23})
	cols := dataset.AssignSlidingWindow(corpus, 22, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols[:10], Config{SynopsisSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	joiner, err := net.AddPeer(cols[10], 0)
	if err != nil {
		t.Fatal(err)
	}
	// Converge the whole ring so lookups now route to the newcomer for
	// its range.
	net.StabilizeAll()
	// Every term the ring maps to the joiner must be served from the
	// joiner's own fraction — acquired during JoinLive, not republish.
	self := joiner.Node().Self()
	pred := joiner.Node().Predecessor()
	if pred.IsZero() {
		t.Fatal("joiner has no predecessor after StabilizeAll")
	}
	owned := 0
	for _, p := range net.Peers {
		if p == joiner {
			continue
		}
		for _, term := range p.Index().Terms() {
			if !chord.InInterval(pred.ID, chord.HashKey(term), self.ID) {
				continue
			}
			owned++
			if len(joiner.DirectoryService().Lookup(term)) == 0 {
				t.Fatalf("joiner owns %q but stores no posts for it", term)
			}
		}
	}
	if owned == 0 {
		t.Skip("joiner owns no populated terms for this seed")
	}
}

// TestGracefulLeaveKeepsDirectoryWhole: after a peer leaves gracefully,
// every term it stored is still fetchable (the fraction moved to its
// successor) and its own publications are withdrawn.
func TestGracefulLeaveKeepsDirectoryWhole(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1200, VocabSize: 900, Seed: 29})
	cols := dataset.AssignSlidingWindow(corpus, 24, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, Config{SynopsisSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	leaver := net.Peers[5]
	leaverName := leaver.Name()
	storedTerms := leaver.DirectoryService().StoredTerms()
	if len(storedTerms) == 0 {
		t.Fatal("leaver stores no directory fraction")
	}
	rep, err := net.RemovePeer(leaverName)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if rep.Target == "" || rep.Posts == 0 {
		t.Fatalf("handoff report %+v: want an acknowledged push", rep)
	}
	net.StabilizeAll()
	// Every term the leaver stored must still resolve to a live replica
	// holding posts; none of the surviving posts may name the leaver.
	survivor := net.Peers[0]
	for _, term := range storedTerms {
		pl, err := fetchTerm(survivor, term)
		if err != nil {
			t.Fatalf("fetch %q after leave: %v", term, err)
		}
		hadOthers := false
		for _, p := range pl {
			if p.Peer == leaverName {
				t.Fatalf("term %q still lists departed peer %s", term, leaverName)
			}
			hadOthers = true
		}
		_ = hadOthers // a term published only by the leaver legitimately empties
	}
	if got := net.Peer(leaverName); got != nil {
		t.Fatalf("departed peer still registered")
	}
	if leaver.Reachable() {
		t.Fatalf("departed peer still serves RPCs")
	}
}

// TestBootstrapNetworkMatchesJoinedRing: a network booted above the
// bootstrap threshold must form a correct ring — every peer's successor
// is the next peer by ring ID — without any stabilization.
func TestBootstrapNetworkMatchesJoinedRing(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1300, VocabSize: 800, Seed: 31})
	cols := dataset.AssignSlidingWindow(corpus, bootstrapThreshold, 2, 1)
	net, err := BuildNetwork(transport.NewInMem(), nil, cols, Config{SynopsisSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	if len(net.Peers) != bootstrapThreshold {
		t.Fatalf("%d peers, want %d", len(net.Peers), bootstrapThreshold)
	}
	refs := make([]chord.NodeRef, len(net.Peers))
	for i, p := range net.Peers {
		refs[i] = p.Node().Self()
	}
	for _, p := range net.Peers {
		self := p.Node().Self()
		var want chord.NodeRef
		best := false
		for _, r := range refs {
			if r.Addr == self.Addr {
				continue
			}
			if !best || chord.InInterval(self.ID, r.ID, want.ID) {
				want = r
				best = true
			}
		}
		if got := p.Node().Successor(); got.Addr != want.Addr {
			t.Fatalf("%s successor = %s, want %s", self.Addr, got.Addr, want.Addr)
		}
	}
	// The directory must work end to end on the bootstrapped ring.
	term := net.Peers[7].Index().Terms()[0]
	pl, err := fetchTerm(net.Peers[42], term)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) == 0 {
		t.Fatalf("no posts for %q on bootstrapped ring", term)
	}
}
