package directory

import (
	"fmt"
	"testing"

	"iqn/internal/chord"
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
	if err := clients[0].Publish(posts); err != nil {
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
	if err := clients[0].Publish(posts); err != nil {
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

func TestWithdrawRemovesDepartingPeersPosts(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 2)
	posts := []Post{
		mkPost("peerA", "fire", 10),
		mkPost("peerB", "fire", 20),
		mkPost("peerA", "water", 15),
	}
	if err := clients[0].Publish(posts); err != nil {
		t.Fatal(err)
	}
	removed := clients[1].Withdraw("peerA", []string{"fire", "water"})
	// peerA posted fire and water, each on 2 replicas → 4 stored copies.
	if removed != 4 {
		t.Fatalf("withdraw removed %d copies, want 4", removed)
	}
	pl, err := clients[2].Fetch("fire")
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
	if err := clients[0].Publish(posts); err != nil {
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
