package directory

import (
	"fmt"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/transport"
)

// findService returns the index of the node at addr.
func findService(nodes []*chord.Node, addr string) int {
	for i, n := range nodes {
		if n.Self().Addr == addr {
			return i
		}
	}
	return -1
}

func TestPushHandoffToSuccessor(t *testing.T) {
	nodes, services, clients, _ := testRing(t, 6, 1)
	var posts []Post
	for i := 0; i < 12; i++ {
		posts = append(posts, mkPost("peerA", fmt.Sprintf("term-%02d", i), 10+i))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	// Pick a node that actually stores part of the directory.
	leaver := -1
	for i, s := range services {
		if s.TermCount() > 0 {
			leaver = i
			break
		}
	}
	if leaver < 0 {
		t.Fatal("no node stores any posts")
	}
	held := services[leaver].TermCount()
	succ := nodes[leaver].Successor()
	rep, err := clients[leaver].PushHandoff(services[leaver])
	if err != nil {
		t.Fatalf("push handoff: %v", err)
	}
	if rep.Target != succ.Addr {
		t.Fatalf("handoff target = %q, want successor %q", rep.Target, succ.Addr)
	}
	if rep.Posts == 0 || rep.Bytes == 0 {
		t.Fatalf("handoff report %+v: want posts and bytes > 0", rep)
	}
	si := findService(nodes, succ.Addr)
	for _, term := range services[leaver].StoredTerms() {
		if len(services[si].Lookup(term)) == 0 {
			t.Errorf("successor missing term %q after handoff", term)
		}
	}
	if held == 0 {
		t.Fatalf("leaver stored nothing (%d terms)", held)
	}
}

func TestPushHandoffFailsOverPastDeadSuccessor(t *testing.T) {
	nodes, services, clients, _ := testRing(t, 6, 1)
	var posts []Post
	for i := 0; i < 12; i++ {
		posts = append(posts, mkPost("peerB", fmt.Sprintf("word-%02d", i), 5+i))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	leaver := -1
	for i, s := range services {
		if s.TermCount() > 0 {
			leaver = i
			break
		}
	}
	if leaver < 0 {
		t.Fatal("no node stores any posts")
	}
	// Kill the immediate successor: the push must land on the next one.
	succs := nodes[leaver].SuccessorList()
	if len(succs) < 2 {
		t.Fatalf("successor list too short: %v", succs)
	}
	dead := findService(nodes, succs[0].Addr)
	nodes[dead].Close()
	rep, err := clients[leaver].PushHandoff(services[leaver])
	if err != nil {
		t.Fatalf("push handoff: %v", err)
	}
	if rep.Target != succs[1].Addr {
		t.Fatalf("handoff target = %q, want second successor %q", rep.Target, succs[1].Addr)
	}
	if len(rep.Errors) == 0 || rep.Errors[0].Addr != succs[0].Addr {
		t.Fatalf("report should blame dead successor %q: %+v", succs[0].Addr, rep.Errors)
	}
}

// TestPushHandoffRepublishesWhenSuccessorsDead: when no successor takes
// the push (every handoff push is dropped, as if each successor were
// dead), the leaver's fraction goes out through the publish path to each
// term's replica set minus the leaver itself, and once the leaver has
// departed every one of its posts is still readable.
func TestPushHandoffRepublishesWhenSuccessorsDead(t *testing.T) {
	f := transport.NewFaulty(transport.NewInMem(), 3)
	nodes, services, clients := testRingOn(t, f, 6, 1)
	var posts []Post
	for i := 0; i < 120; i++ {
		posts = append(posts, mkPost("peerD", fmt.Sprintf("item-%03d", i), 4+i%7))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	// The busiest node leaves: more than ringSnapshotMin posts, so the
	// republish resolves replica sets against a ring snapshot.
	leaver := 0
	for i, s := range services {
		if s.TermCount() > services[leaver].TermCount() {
			leaver = i
		}
	}
	held := services[leaver].AllPosts()
	if len(held) <= ringSnapshotMin {
		t.Fatalf("leaver holds %d posts, want more than %d", len(held), ringSnapshotMin)
	}
	self := nodes[leaver].Self().Addr
	f.AddRule(transport.Rule{Method: methodHandoffPush, Drop: 1})
	// A post written back to the leaver would die with it: fail it loudly.
	f.AddRule(transport.Rule{To: self, Method: methodPost, Error: 1})

	rep, err := clients[leaver].PushHandoff(services[leaver])
	if err != nil {
		t.Fatalf("push handoff: %v", err)
	}
	if rep.Target != "" || rep.Republished != len(held) {
		t.Fatalf("report %+v: want no push target and all %d posts republished", rep, len(held))
	}
	for _, e := range rep.Errors {
		if e.Op != "handoff_push" {
			t.Fatalf("unexpected failure %+v: only the successor pushes may fail", e)
		}
	}

	nodes[leaver].Leave()
	nodes[leaver].Close()
	var live []*chord.Node
	for i, n := range nodes {
		if i != leaver {
			live = append(live, n)
		}
	}
	for r := 0; r < 2*len(live); r++ {
		for _, n := range live {
			n.Stabilize()
		}
	}
	for _, n := range live {
		n.FixAllFingers()
	}
	reader := clients[(leaver+1)%len(clients)]
	for _, post := range held {
		pl, err := fetch(reader, post.Term)
		if err != nil {
			t.Fatalf("fetch %q after departure: %v", post.Term, err)
		}
		found := false
		for _, got := range pl {
			found = found || got.Peer == post.Peer
		}
		if !found {
			t.Fatalf("post %s/%s lost with the leaver: %+v", post.Peer, post.Term, pl)
		}
	}
}

func TestWithdrawRemovesDepartingPeersPosts(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 2)
	posts := []Post{
		mkPost("peerA", "fire", 10),
		mkPost("peerB", "fire", 20),
		mkPost("peerA", "water", 15),
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	removed := clients[1].Withdraw("peerA", []string{"fire", "water"})
	// peerA posted fire and water, each on 2 replicas → 4 stored copies.
	if removed != 4 {
		t.Fatalf("withdraw removed %d copies, want 4", removed)
	}
	pl, err := fetch(clients[2], "fire")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl {
		if p.Peer == "peerA" {
			t.Fatalf("peerA still posted for fire after withdraw: %+v", pl)
		}
	}
	if len(pl) != 1 || pl[0].Peer != "peerB" {
		t.Fatalf("fire PeerList = %+v, want only peerB", pl)
	}
}

func TestAcquireOwnedRangeBestEffort(t *testing.T) {
	nodes, services, clients, _ := testRing(t, 6, 3)
	var posts []Post
	for i := 0; i < 20; i++ {
		posts = append(posts, mkPost("peerC", fmt.Sprintf("topic-%02d", i), 3+i))
	}
	if _, err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	// Kill node 3's immediate successor: with replication 3 the next
	// replicas still hold the range, so a best-effort acquire must
	// succeed with a per-replica error naming the corpse.
	succ := nodes[3].Successor()
	nodes[findService(nodes, succ.Addr)].Close()
	rep, err := services[3].AcquireRangeFrom(nodes[3].Predecessor().ID, nodes[3].SuccessorList())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if rep.Sources < 2 {
		t.Fatalf("acquire asked %d sources, want ≥ 2 (successor list)", rep.Sources)
	}
	if rep.Answered == 0 || rep.Answered >= rep.Sources {
		t.Fatalf("answered = %d of %d sources, want partial success", rep.Answered, rep.Sources)
	}
	found := false
	for _, e := range rep.Errors {
		if e.Addr == succ.Addr && e.Unreachable {
			found = true
		}
	}
	if !found {
		t.Fatalf("report should blame dead successor %q as unreachable: %+v", succ.Addr, rep.Errors)
	}
}
