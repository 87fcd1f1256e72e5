package directory

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"iqn/internal/chord"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// serviceByAddr maps a replica address back to its service.
func serviceByAddr(nodes []*chord.Node, services []*Service, addr string) *Service {
	for i, n := range nodes {
		if n.Self().Addr == addr {
			return services[i]
		}
	}
	return nil
}

func TestPublishReportPerReplicaErrors(t *testing.T) {
	nodes, _, clients, net := testRing(t, 5, 2)
	posts := []Post{mkPost("p", "alpha", 10), mkPost("p", "beta", 20)}
	// Healthy publish: every group written, no errors.
	rep, err := clients[0].Publish(posts)
	if err != nil || len(rep.Errors) != 0 || rep.Written != rep.Groups || rep.Groups == 0 {
		t.Fatalf("healthy publish report = %+v, %v", rep, err)
	}
	// Partition one replica of "alpha": publication still succeeds (the
	// other replica accepts), but the failed replica is named.
	replicas, err := nodes[0].ReplicaSet("alpha", 2)
	if err != nil {
		t.Fatal(err)
	}
	victim := replicas[1].Addr
	net.SetPartitioned(victim, true)
	rep, err = clients[0].Publish(posts)
	if err != nil {
		t.Fatalf("degraded publish = %v", err)
	}
	if rep.Written == rep.Groups {
		t.Fatalf("report claims all %d groups written with %s partitioned", rep.Groups, victim)
	}
	found := false
	for _, re := range rep.Errors {
		if re.Addr == victim {
			found = true
			if re.Op != "post" || !re.Unreachable || re.Err == "" {
				t.Fatalf("victim error = %+v", re)
			}
		}
	}
	if !found {
		t.Fatalf("partitioned replica %s missing from errors %+v", victim, rep.Errors)
	}
	// Every target down: loud aggregate error plus the full account.
	for _, n := range nodes {
		net.SetPartitioned(n.Self().Addr, true)
	}
	rep, err = clients[0].Publish(posts)
	if err == nil {
		t.Fatal("publish with every replica down succeeded")
	}
	if rep.Written != 0 || len(rep.Errors) != rep.Groups {
		t.Fatalf("total-failure report = %+v", rep)
	}
}

func TestFetchAllReportWinnersAndFallback(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 3)
	if _, err := clients[0].Publish([]Post{mkPost("p", "gamma", 7)}); err != nil {
		t.Fatal(err)
	}
	// Healthy fetch: the owner wins, no errors.
	reader := clients[0]
	lists, rep, err := reader.FetchAllReportOpts([]string{"gamma"}, 0, FetchOptions{})
	if err != nil || len(lists["gamma"]) != 1 {
		t.Fatalf("healthy fetch = %+v, %v", lists, err)
	}
	replicas, _ := nodes[0].ReplicaSet("gamma", 3)
	if rep.Winners["gamma"] != replicas[0].Addr {
		t.Fatalf("winner = %s, want owner %s", rep.Winners["gamma"], replicas[0].Addr)
	}
	// Partition the owner (no stabilization: the failure is transient, the
	// ring still names it): the fetch falls over to a replica and the
	// report blames the owner precisely.
	owner := replicas[0].Addr
	if clients[0].node.Self().Addr == owner {
		reader = clients[1]
	}
	net.SetPartitioned(owner, true)
	lists, rep, err = reader.FetchAllReportOpts([]string{"gamma"}, 0, FetchOptions{})
	if err != nil || len(lists["gamma"]) != 1 {
		t.Fatalf("failed-over fetch = %+v, %v", lists, err)
	}
	if w := rep.Winners["gamma"]; w == owner || w == "" {
		t.Fatalf("winner after owner partition = %q", w)
	}
	blamed := false
	for _, re := range rep.Errors {
		if re.Addr == owner && re.Unreachable {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("owner %s not blamed in %+v", owner, rep.Errors)
	}
}

func TestHedgedFetchOutrunsSlowOwner(t *testing.T) {
	f := transport.NewFaulty(transport.NewInMem(), 11)
	nodes, _, clients := testRingOn(t, f, 5, 3)
	c := clients[0]
	if _, err := c.Publish([]Post{mkPost("p", "delta", 9)}); err != nil {
		t.Fatal(err)
	}
	replicas, err := nodes[0].ReplicaSet("delta", 3)
	if err != nil {
		t.Fatal(err)
	}
	owner := replicas[0].Addr
	// The owner answers, but slowly — the classic tail case breakers
	// cannot help with. The rule is scoped to the fetch RPC so chord
	// lookups stay fast.
	f.AddRule(transport.Rule{To: owner, Method: methodGet, DelayProb: 1, Delay: 400 * time.Millisecond})
	c.HedgeDelay = 25 * time.Millisecond
	start := time.Now()
	lists, rep, err := c.FetchAllReportOpts([]string{"delta"}, 0, FetchOptions{})
	elapsed := time.Since(start)
	if err != nil || len(lists["delta"]) != 1 {
		t.Fatalf("hedged fetch = %+v, %v", lists, err)
	}
	if w := rep.Winners["delta"]; w == owner {
		t.Fatalf("slow owner still won the hedge (winner %s)", w)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged fetch took %v — waited out the slow owner", elapsed)
	}
}

func TestMergePeerListsEpochFloor(t *testing.T) {
	a := mkPost("alive", "t", 5)
	a.Epoch = 3
	aOld := a
	aOld.Epoch = 2
	aOld.ListLength = 1
	b := mkPost("other", "t", 8)
	b.Epoch = 3
	dead := mkPost("dead", "t", 9)
	dead.Epoch = 1
	merged := MergePeerLists([]PeerList{{aOld, dead}, {a, b}})
	if len(merged) != 2 {
		t.Fatalf("merged = %+v", merged)
	}
	// Per-peer, the freshest epoch wins; the whole merge is floored at
	// its max epoch, so the dead peer's stale post is not resurrected.
	if merged[0].Peer != "alive" || merged[0].Epoch != 3 || merged[0].ListLength != 5 {
		t.Fatalf("merged[0] = %+v", merged[0])
	}
	if merged[1].Peer != "other" {
		t.Fatalf("merged[1] = %+v", merged[1])
	}
	// All-equal epochs: plain union.
	u := MergePeerLists([]PeerList{{a}, {b}})
	if len(u) != 2 {
		t.Fatalf("union = %+v", u)
	}
}

func TestDigestPostsCanonical(t *testing.T) {
	p1, p2 := mkPost("a", "t", 5), mkPost("b", "t", 7)
	p1.Epoch, p2.Epoch = 4, 4
	d1 := DigestPosts(PeerList{p1, p2})
	d2 := DigestPosts(PeerList{p2, p1}) // order-insensitive
	if d1 != d2 {
		t.Fatalf("digest order-sensitive: %+v vs %+v", d1, d2)
	}
	if d1.Count != 2 || d1.MaxEpoch != 4 {
		t.Fatalf("digest = %+v", d1)
	}
	mut := p2
	mut.ListLength++
	if DigestPosts(PeerList{p1, mut}) == d1 {
		t.Fatal("content change did not change the digest")
	}
	mut = p2
	mut.Epoch = 5
	if DigestPosts(PeerList{p1, mut}) == d1 {
		t.Fatal("epoch change did not change the digest")
	}
}

func TestReplaceTermSemantics(t *testing.T) {
	_, services, clients, _ := testRing(t, 3, 3)
	if _, err := clients[0].Publish([]Post{mkPost("a", "t", 5), mkPost("b", "t", 6)}); err != nil {
		t.Fatal(err)
	}
	s := services[0]
	if got := len(s.Lookup("t")); got != 2 {
		t.Fatalf("stored posts = %d", got)
	}
	// Replacement drops posts absent from the new list — upsert would not.
	s.ReplaceTerm("t", PeerList{mkPost("a", "t", 5)})
	if got := s.Lookup("t"); len(got) != 1 || got[0].Peer != "a" {
		t.Fatalf("after replace = %+v", got)
	}
	s.ReplaceTerm("t", nil)
	if got := len(s.Lookup("t")); got != 0 {
		t.Fatalf("after empty replace = %d posts", got)
	}
	if terms := s.StoredTerms(); len(terms) != 0 {
		t.Fatalf("StoredTerms after delete = %v", terms)
	}
}

func TestRepairTermAntiEntropy(t *testing.T) {
	nodes, services, clients, _ := testRing(t, 6, 3)
	full := []Post{mkPost("a", "zeta", 3), mkPost("b", "zeta", 4)}
	if _, err := clients[0].Publish(full); err != nil {
		t.Fatal(err)
	}
	replicas, err := nodes[0].ReplicaSet("zeta", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Converged replicas: the cheap digest phase finds nothing to move.
	if n, err := clients[1].RepairTerm("zeta"); err != nil || n != 0 {
		t.Fatalf("converged repair = %d, %v", n, err)
	}
	// Diverge one replica, then sweep: exactly that replica is patched.
	stale := serviceByAddr(nodes, services, replicas[1].Addr)
	stale.ReplaceTerm("zeta", PeerList{full[1]})
	n, err := clients[1].RepairTerm("zeta")
	if err != nil || n != 1 {
		t.Fatalf("repair = %d, %v", n, err)
	}
	want := DigestPosts(serviceByAddr(nodes, services, replicas[0].Addr).Lookup("zeta"))
	for _, r := range replicas {
		if got := DigestPosts(serviceByAddr(nodes, services, r.Addr).Lookup("zeta")); got != want {
			t.Fatalf("replica %s digest %+v, want %+v", r.Addr, got, want)
		}
	}
	// AntiEntropy sweeps term sets.
	stale.ReplaceTerm("zeta", PeerList{full[0]})
	if n := clients[1].AntiEntropy([]string{"zeta", "missing"}); n != 1 {
		t.Fatalf("AntiEntropy = %d", n)
	}
}

func TestOverloadedDirectoryFetchDegradesLoudly(t *testing.T) {
	// A saturated replica answers with ErrOverloaded; the fetch fails over
	// and the report classifies the reject as retryable (Unreachable).
	nodes, _, clients, _ := testRing(t, 5, 3)
	if _, err := clients[0].Publish([]Post{mkPost("p", "eta", 2)}); err != nil {
		t.Fatal(err)
	}
	replicas, err := nodes[0].ReplicaSet("eta", 3)
	if err != nil {
		t.Fatal(err)
	}
	owner := replicas[0].Addr
	var ownerNode *chord.Node
	for _, n := range nodes {
		if n.Self().Addr == owner {
			ownerNode = n
		}
	}
	// Saturate the owner: zero admission capacity sheds every request.
	ownerNode.Mux().SetLimit(1, 0)
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	ownerNode.Mux().Handle("block", func([]byte) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	})
	go nodes[0].Network().Call(owner, "block", nil)
	<-started
	defer close(block)
	reader := clients[0]
	if reader.node.Self().Addr == owner {
		reader = clients[1]
	}
	lists, rep, err := reader.FetchAllReportOpts([]string{"eta"}, 0, FetchOptions{})
	if err != nil || len(lists["eta"]) != 1 {
		t.Fatalf("fetch against saturated owner = %+v, %v", lists, err)
	}
	blamed := false
	for _, re := range rep.Errors {
		if re.Addr == owner && re.Unreachable && strings.Contains(re.Err, "overloaded") {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("saturated owner not blamed as overloaded in %+v", rep.Errors)
	}
}

// TestRepairFloorPreventsResurrection is the anti-resurrection guard:
// when a term's live replicas have pruned its posts away entirely, a
// revived replica that slept through the prune must not win the repair
// merge with its stale copy — the exchanged prune floor kills the old
// posts instead.
func TestRepairFloorPreventsResurrection(t *testing.T) {
	nodes, services, clients, _ := testRing(t, 5, 3)
	post := mkPost("sleeper", "omega", 10)
	post.Epoch = 1
	if _, err := clients[0].Publish([]Post{post}); err != nil {
		t.Fatal(err)
	}
	replicas, err := nodes[0].ReplicaSet("omega", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas prune at epoch 2 (the post's peer never republished);
	// the third slept through the round and keeps the stale copy.
	for _, r := range replicas[:2] {
		serviceByAddr(nodes, services, r.Addr).Prune(2)
	}
	stale := serviceByAddr(nodes, services, replicas[2].Addr)
	if len(stale.Lookup("omega")) != 1 {
		t.Fatalf("stale replica lost its copy prematurely")
	}
	repaired, err := clients[1].RepairTerm("omega")
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Fatalf("repaired = %d, want 1 (the stale replica)", repaired)
	}
	for _, r := range replicas {
		if pl := serviceByAddr(nodes, services, r.Addr).Lookup("omega"); len(pl) != 0 {
			t.Fatalf("replica %s resurrected pruned posts: %+v", r.Addr, pl)
		}
	}
	if stale.Floor() != 2 {
		t.Fatalf("stale replica floor = %d, want 2 (learned from repair)", stale.Floor())
	}
	// Converged: a second sweep is a no-op.
	if n, _ := clients[1].RepairTerm("omega"); n != 0 {
		t.Fatalf("second repair patched %d replicas, want 0", n)
	}
}

// TestPartitionedOwnerGroupServedByNextReplica: a two-term owner group
// whose owner is partitioned costs exactly two read RPCs — the failed
// leg to the owner and one batched read served by the next replica —
// and the owner is blamed once. Every term of the group shares the
// owner's replica set, so nothing is re-asked per term.
func TestPartitionedOwnerGroupServedByNextReplica(t *testing.T) {
	net := transport.NewFaulty(transport.NewInMem(), 3)
	nodes, _, clients := testRingOn(t, net, 6, 2)
	// Two terms with a common owner.
	byOwner := map[string][]string{}
	var owner string
	var group []string
	for i := 0; group == nil; i++ {
		term := fmt.Sprintf("g%02d", i)
		replicas, err := nodes[0].ReplicaSet(term, 2)
		if err != nil {
			t.Fatal(err)
		}
		o := replicas[0].Addr
		byOwner[o] = append(byOwner[o], term)
		if len(byOwner[o]) == 2 && o != nodes[0].Self().Addr {
			owner, group = o, byOwner[o]
		}
	}
	if _, err := clients[1].Publish([]Post{mkPost("p", group[0], 3), mkPost("p", group[1], 4)}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	reader := clients[0]
	reader.Metrics = reg
	net.AddRule(transport.Rule{To: owner, Method: MethodGet, Partition: true})
	lists, rep, err := reader.FetchAllReportOpts(group, 0, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, term := range group {
		if len(lists[term]) != 1 || lists[term][0].ListLength != 3+i {
			t.Fatalf("%s = %+v", term, lists[term])
		}
		if w := rep.Winners[term]; w == owner || w == "" {
			t.Fatalf("%s served by %q with its owner %s partitioned", term, w, owner)
		}
	}
	if got := dirReadRPCs(reg); got != 2 {
		t.Fatalf("read RPCs = %d, want 2 (one failed leg, one served)", got)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Addr != owner || !rep.Errors[0].Unreachable {
		t.Fatalf("errors = %+v, want the owner %s blamed once", rep.Errors, owner)
	}
}
