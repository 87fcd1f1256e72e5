package directory

import (
	"fmt"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// testRing boots n chord nodes with directory services on an in-mem
// network.
func testRing(t *testing.T, n, replicas int) ([]*chord.Node, []*Service, []*Client, *transport.InMem) {
	t.Helper()
	net := transport.NewInMem()
	nodes, services, clients := testRingOn(t, net, n, replicas)
	return nodes, services, clients, net
}

// testRingOn boots the ring on a caller-supplied network (fault
// injection harnesses wrap InMem).
func testRingOn(t *testing.T, net transport.Network, n, replicas int) ([]*chord.Node, []*Service, []*Client) {
	t.Helper()
	nodes := make([]*chord.Node, n)
	services := make([]*Service, n)
	clients := make([]*Client, n)
	for i := range nodes {
		node, err := chord.New(fmt.Sprintf("dir-%02d", i), net, chord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		services[i] = NewService(node)
		clients[i] = NewClient(node, replicas)
	}
	nodes[0].Create()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(nodes[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for j := 0; j <= i; j++ {
				nodes[j].Stabilize()
			}
		}
	}
	for r := 0; r < 2*n; r++ {
		for _, node := range nodes {
			node.Stabilize()
		}
	}
	for _, node := range nodes {
		node.FixAllFingers()
	}
	return nodes, services, clients
}

// fetch reads one term's PeerList through the client's batched read path.
func fetch(c *Client, term string) (PeerList, error) {
	lists, _, err := c.FetchAllReportOpts([]string{term}, 0, FetchOptions{})
	return lists[term], err
}

func mkPost(peer, term string, listLen int) Post {
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 1024, Seed: 5}
	ids := make([]uint64, listLen)
	for i := range ids {
		ids[i] = uint64(i)
	}
	data, err := cfg.FromIDs(ids).MarshalBinary()
	if err != nil {
		panic(err)
	}
	return Post{
		Peer: peer, PeerAddr: peer, Term: term,
		ListLength: listLen, MaxScore: 3.5, AvgScore: 1.2,
		TermSpaceSize: 100, NumDocs: 1000, Synopsis: data,
	}
}

func TestPublishAndFetch(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 1)
	posts := []Post{
		mkPost("peerA", "fire", 10),
		mkPost("peerA", "forest", 20),
		mkPost("peerB", "fire", 30),
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	// Any peer can fetch.
	pl, err := fetch(clients[3], "fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 2 {
		t.Fatalf("fire PeerList = %d posts, want 2", len(pl))
	}
	if pl[0].Peer != "peerA" || pl[1].Peer != "peerB" {
		t.Fatalf("PeerList order = %s, %s", pl[0].Peer, pl[1].Peer)
	}
	if pl[1].ListLength != 30 {
		t.Fatalf("peerB list length = %d", pl[1].ListLength)
	}
	// The synopsis round-trips through the directory.
	set, err := synopsis.Unmarshal(pl[0].Synopsis)
	if err != nil {
		t.Fatal(err)
	}
	if set.Cardinality() != 10 {
		t.Fatalf("synopsis cardinality = %v", set.Cardinality())
	}
	// Missing term: empty list, no error.
	empty, err := fetch(clients[1], "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("missing term PeerList = %v", empty)
	}
}

func TestPublishUpsertsPerPeer(t *testing.T) {
	_, _, clients, _ := testRing(t, 4, 1)
	if _, err := clients[0].Publish([]Post{mkPost("p", "term", 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].Publish([]Post{mkPost("p", "term", 99)}); err != nil {
		t.Fatal(err)
	}
	pl, err := fetch(clients[2], "term")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 {
		t.Fatalf("upsert produced %d posts", len(pl))
	}
	if pl[0].ListLength != 99 {
		t.Fatalf("stale post kept: length %d", pl[0].ListLength)
	}
}

func TestFetchAllBatches(t *testing.T) {
	_, _, clients, net := testRing(t, 6, 1)
	var posts []Post
	terms := []string{"alpha", "beta", "gamma", "delta"}
	for _, term := range terms {
		for p := 0; p < 3; p++ {
			posts = append(posts, mkPost(fmt.Sprintf("peer%d", p), term, 10+p))
		}
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	got, _, err := clients[5].FetchAllReportOpts(terms, 0, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		if len(got[term]) != 3 {
			t.Fatalf("%s PeerList = %d posts, want 3", term, len(got[term]))
		}
	}
}

func TestReplicationSurvivesOwnerFailure(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 3)
	if _, err := clients[0].Publish([]Post{mkPost("p", "resilient", 42)}); err != nil {
		t.Fatal(err)
	}
	// Find and kill the term's owner.
	owner, err := nodes[0].Lookup("resilient")
	if err != nil {
		t.Fatal(err)
	}
	net.SetPartitioned(owner.Addr, true)
	// Failure detection happens through stabilization (as in Chord): the
	// survivors route around the dead owner, whose first successor —
	// which holds a replica — becomes the term's new owner.
	var survivors []*chord.Node
	for _, n := range nodes {
		if n.Self().Addr != owner.Addr {
			survivors = append(survivors, n)
		}
	}
	for r := 0; r < 2*len(survivors); r++ {
		for _, n := range survivors {
			n.Stabilize()
		}
	}
	for _, n := range survivors {
		n.FixAllFingers()
	}
	// A client whose own node is not the dead owner must still read the
	// post from a replica.
	var reader *Client
	for i, n := range nodes {
		if n.Self().Addr != owner.Addr {
			reader = clients[i]
			break
		}
	}
	pl, err := fetch(reader, "resilient")
	if err != nil {
		t.Fatalf("fetch after owner failure: %v", err)
	}
	if len(pl) != 1 || pl[0].ListLength != 42 {
		t.Fatalf("replica data = %+v", pl)
	}
	// A batched read takes the replica path too.
	all, _, err := reader.FetchAllReportOpts([]string{"resilient"}, 0, FetchOptions{})
	if err != nil {
		t.Fatalf("batched fetch after owner failure: %v", err)
	}
	if len(all["resilient"]) != 1 {
		t.Fatalf("batched fetch replica data = %+v", all)
	}
}

func TestPublishWithHistogram(t *testing.T) {
	_, _, clients, _ := testRing(t, 3, 1)
	p := mkPost("p", "scored", 10)
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 512, Seed: 5}
	cellSyn, _ := cfg.FromIDs([]uint64{1, 2, 3}).MarshalBinary()
	p.Histogram = []HistCell{
		{Lo: 0, Hi: 1, Count: 3, Synopsis: cellSyn},
		{Lo: 1, Hi: 2, Count: 0, Synopsis: nil},
	}
	if _, err := clients[0].Publish([]Post{p}); err != nil {
		t.Fatal(err)
	}
	pl, err := fetch(clients[1], "scored")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || len(pl[0].Histogram) != 2 {
		t.Fatalf("histogram lost: %+v", pl)
	}
	if pl[0].Histogram[0].Count != 3 {
		t.Fatalf("cell count = %d", pl[0].Histogram[0].Count)
	}
}

func TestServiceTermCount(t *testing.T) {
	_, services, clients, _ := testRing(t, 3, 1)
	var posts []Post
	for i := 0; i < 30; i++ {
		posts = append(posts, mkPost("p", fmt.Sprintf("t%02d", i), 5))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range services {
		total += s.TermCount()
	}
	if total != 30 {
		t.Fatalf("stored term count = %d, want 30 (partitioned, no replication)", total)
	}
	// Terms must be spread over more than one node.
	spread := 0
	for _, s := range services {
		if s.TermCount() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("all terms on %d node(s): partitioning broken", spread)
	}
}

func TestPublishAllTargetsDown(t *testing.T) {
	nodes, _, clients, net := testRing(t, 3, 1)
	// Cut every other node; publishing a term owned elsewhere must fail
	// loudly when no target accepts it.
	for _, n := range nodes[1:] {
		net.SetPartitioned(n.Self().Addr, true)
	}
	// Find a term owned by a partitioned node.
	var term string
	for i := 0; ; i++ {
		term = fmt.Sprintf("probe%d", i)
		owner, err := nodes[0].Lookup(term)
		if err != nil {
			// Lookup may fail when the ring is mostly dead — acceptable:
			// publish will fail below via the same path.
			break
		}
		if owner.Addr != nodes[0].Self().Addr {
			break
		}
	}
	if _, err := clients[0].Publish([]Post{mkPost("p", term, 1)}); err == nil {
		t.Fatal("publish with all targets down succeeded")
	}
}

func TestPruneAgesOutStalePosts(t *testing.T) {
	_, services, clients, _ := testRing(t, 4, 1)
	old := mkPost("dead-peer", "term", 10) // Epoch 0
	fresh := mkPost("live-peer", "term", 20)
	fresh.Epoch = 1
	if _, err := clients[0].Publish([]Post{old, fresh}); err != nil {
		t.Fatal(err)
	}
	dropped := clients[1].PruneBelow(1)
	if dropped != 1 {
		t.Fatalf("pruned %d posts, want 1", dropped)
	}
	pl, err := fetch(clients[2], "term")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Peer != "live-peer" {
		t.Fatalf("after prune PeerList = %+v", pl)
	}
	// Terms whose posts all expire vanish entirely. The post is at the
	// floor, so the owner stores it (below it, Publish would fail).
	gone := mkPost("dead-peer", "gone", 5)
	gone.Epoch = 1
	if _, err := clients[0].Publish([]Post{gone}); err != nil {
		t.Fatal(err)
	}
	if total := termTotal(services); total != 2 {
		t.Fatalf("%d terms stored before the full prune, want 2", total)
	}
	clients[0].PruneBelow(10)
	if total := termTotal(services); total != 0 {
		t.Fatalf("%d terms survive full prune", total)
	}
}

// termTotal sums the terms stored across the services.
func termTotal(services []*Service) int {
	total := 0
	for _, s := range services {
		total += s.TermCount()
	}
	return total
}

func TestHandoffOnJoin(t *testing.T) {
	nodes, services, clients, net := testRing(t, 4, 1)
	// Publish a spread of terms.
	var posts []Post
	for i := 0; i < 60; i++ {
		posts = append(posts, mkPost("peer", fmt.Sprintf("h-term-%02d", i), 7))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	// A new node joins; after stabilization it owns part of the ring but
	// holds no posts yet.
	late, err := chord.New("dir-late", net, chord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lateSvc := NewService(late)
	if err := late.Join(nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*chord.Node{}, nodes...), late)
	for r := 0; r < 2*len(all); r++ {
		for _, n := range all {
			n.Stabilize()
		}
	}
	for _, n := range all {
		n.FixAllFingers()
	}
	// Find a term the late node now owns; without handoff it is lost.
	var ownedTerm string
	for i := 0; i < 60; i++ {
		term := fmt.Sprintf("h-term-%02d", i)
		owner, err := nodes[0].Lookup(term)
		if err != nil {
			t.Fatal(err)
		}
		if owner.Addr == "dir-late" {
			ownedTerm = term
			break
		}
	}
	if ownedTerm == "" {
		t.Skip("late node owns none of the probe terms (hash layout); nothing to hand off")
	}
	lateClient := NewClient(late, 1)
	pl, err := fetch(lateClient, ownedTerm)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 0 {
		t.Fatalf("pre-handoff fetch returned %d posts, want 0 (the gap handoff closes)", len(pl))
	}
	acquired, err := lateSvc.AcquireRangeFrom(late.Predecessor().ID, late.SuccessorList())
	if err != nil {
		t.Fatal(err)
	}
	if acquired.Acquired == 0 {
		t.Fatal("handoff acquired nothing")
	}
	pl, err = fetch(lateClient, ownedTerm)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].ListLength != 7 {
		t.Fatalf("post-handoff fetch = %+v", pl)
	}
	// Handoff only moves the owned interval, not everything.
	total := 0
	for _, s := range services {
		total += s.TermCount()
	}
	if lateSvc.TermCount() >= total {
		t.Fatalf("late node has %d terms, old nodes %d: over-transferred", lateSvc.TermCount(), total)
	}
}

func TestPostsInRange(t *testing.T) {
	_, services, clients, _ := testRing(t, 3, 1)
	if _, err := clients[0].Publish([]Post{mkPost("p", "alpha", 1), mkPost("p", "beta", 2)}); err != nil {
		t.Fatal(err)
	}
	// The full ring interval (x, x] returns everything a node stores.
	for _, s := range services {
		self := s.node.Self().ID
		got := s.PostsInRange(self, self)
		if len(got) != s.TermCount() {
			// TermCount counts terms; with one peer per term they match.
			t.Fatalf("full-interval posts = %d, terms = %d", len(got), s.TermCount())
		}
	}
}
