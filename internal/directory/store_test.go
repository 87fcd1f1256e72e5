package directory

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"iqn/internal/chord"
)

// mapModel is the reference store: term → peer → post, sorted only when
// read. It applies the same floor rule as Service — a write below the
// floor is dropped, and a prune raises the floor and sweeps — so a
// Service must answer every read exactly as the model does, whatever the
// order its writes arrived in.
type mapModel struct {
	data  map[string]map[string]Post
	floor int64
}

func newMapModel() *mapModel { return &mapModel{data: map[string]map[string]Post{}} }

// store upserts posts at or above the floor and counts them.
func (m *mapModel) store(posts []Post) int {
	stored := 0
	for _, p := range posts {
		if p.Epoch < m.floor {
			continue
		}
		byPeer := m.data[p.Term]
		if byPeer == nil {
			byPeer = map[string]Post{}
			m.data[p.Term] = byPeer
		}
		byPeer[p.Peer] = p
		stored++
	}
	return stored
}

// prune raises the floor and drops every post below it; a floor that
// does not rise changes nothing.
func (m *mapModel) prune(minEpoch int64) int {
	if minEpoch <= m.floor {
		return 0
	}
	m.floor = minEpoch
	dropped := 0
	for term, byPeer := range m.data {
		for peer, p := range byPeer {
			if p.Epoch < minEpoch {
				delete(byPeer, peer)
				dropped++
			}
		}
		if len(byPeer) == 0 {
			delete(m.data, term)
		}
	}
	return dropped
}

// replace overwrites a term: the last post per peer wins, posts below
// the floor are dropped, and nothing left deletes the term.
func (m *mapModel) replace(term string, posts PeerList) {
	delete(m.data, term)
	for _, p := range posts {
		if p.Epoch < m.floor {
			continue
		}
		if m.data[term] == nil {
			m.data[term] = map[string]Post{}
		}
		m.data[term][p.Peer] = p
	}
}

// remove deletes a peer's posts for the given terms and counts them.
func (m *mapModel) remove(peer string, terms []string) int {
	removed := 0
	for _, term := range terms {
		byPeer := m.data[term]
		if _, ok := byPeer[peer]; !ok {
			continue
		}
		delete(byPeer, peer)
		removed++
		if len(byPeer) == 0 {
			delete(m.data, term)
		}
	}
	return removed
}

// lookup is a term's posts sorted by peer (nil when it has none).
func (m *mapModel) lookup(term string) PeerList {
	var out PeerList
	for _, p := range m.data[term] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// inRange is every post whose term hashes into (from, to], ordered by
// (term, peer).
func (m *mapModel) inRange(from, to chord.ID) []Post {
	var out []Post
	for term, byPeer := range m.data {
		if !chord.InInterval(from, chord.HashKey(term), to) {
			continue
		}
		for _, p := range byPeer {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Term != out[j].Term {
			return out[i].Term < out[j].Term
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// TestServiceMatchesMapModel drives one node's directory service and the
// map model through the same seeded random writes — publish batches in
// random peer and term order with epochs on both sides of the floor,
// prunes, handoff pushes carrying a floor, repairs with unsorted or
// duplicated lists and a floor below the node's own, and withdraws —
// every write but Prune over its RPC. After each write every term's
// Lookup, PostsInRange and DigestPosts must equal the model's.
func TestServiceMatchesMapModel(t *testing.T) {
	const peers, terms = 7, 6
	peerName := func(i int) string { return fmt.Sprintf("peer-%d", i) }
	termName := func(i int) string { return fmt.Sprintf("term-%d", i) }
	for seed := int64(1); seed <= 12; seed++ {
		_, services, clients, _ := testRing(t, 1, 1)
		svc, c := services[0], clients[0]
		addr := svc.node.Self().Addr
		m := newMapModel()
		rng := rand.New(rand.NewSource(seed))
		post := func(term string) Post {
			peer := peerName(rng.Intn(peers))
			return Post{
				Peer: peer, PeerAddr: "addr-" + peer, Term: term,
				ListLength: rng.Intn(50), MaxScore: rng.Float64(),
				Synopsis: []byte{byte(rng.Intn(256))},
				Epoch:    m.floor - 2 + int64(rng.Intn(6)),
			}
		}
		posts := func(n int, sameTerm string) []Post {
			out := make([]Post, n)
			for i := range out {
				term := sameTerm
				if term == "" {
					term = termName(rng.Intn(terms))
				}
				out[i] = post(term)
			}
			return out
		}
		for op := 0; op < 150; op++ {
			var what string
			switch k := rng.Intn(10); {
			case k < 4:
				batch := posts(1+rng.Intn(12), "")
				what = fmt.Sprintf("dir.post of %d", len(batch))
				got, err := invoke(c, postRPC, addr, batch, 0)
				if want := m.store(batch); err != nil || got != want {
					t.Fatalf("seed %d op %d: %s stored %d, %v; model %d", seed, op, what, got, err, want)
				}
			case k < 5:
				floor := m.floor - 1 + int64(rng.Intn(3))
				what = fmt.Sprintf("Prune(%d)", floor)
				if got, want := svc.Prune(floor), m.prune(floor); got != want {
					t.Fatalf("seed %d op %d: %s dropped %d; model %d", seed, op, what, got, want)
				}
			case k < 6:
				hp := handoffPush{Posts: posts(rng.Intn(8), ""), Floor: m.floor - 1 + int64(rng.Intn(3))}
				what = fmt.Sprintf("dir.handoff_push of %d at floor %d", len(hp.Posts), hp.Floor)
				if _, err := invoke(c, handoffPushRPC, addr, hp, 0); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, what, err)
				}
				m.prune(hp.Floor)
				m.store(hp.Posts)
			case k < 8:
				// A repair payload in any order, with duplicate peers, and
				// a floor at or below the node's own.
				term := termName(rng.Intn(terms))
				r := repairRequest{Term: term, Posts: posts(rng.Intn(9), term), Floor: m.floor - int64(rng.Intn(3))}
				what = fmt.Sprintf("dir.repair of %q with %d posts at floor %d", term, len(r.Posts), r.Floor)
				if _, err := invoke(c, repairRPC, addr, r, 0); err != nil {
					t.Fatalf("seed %d op %d: %s: %v", seed, op, what, err)
				}
				m.prune(r.Floor)
				m.replace(term, r.Posts)
			default:
				wr := withdrawRequest{Peer: peerName(rng.Intn(peers))}
				for i := rng.Intn(4); i > 0; i-- {
					wr.Terms = append(wr.Terms, termName(rng.Intn(terms)))
				}
				what = fmt.Sprintf("dir.withdraw of %s from %v", wr.Peer, wr.Terms)
				got, err := invoke(c, withdrawRPC, addr, wr, 0)
				if want := m.remove(wr.Peer, wr.Terms); err != nil || got != want {
					t.Fatalf("seed %d op %d: %s removed %d, %v; model %d", seed, op, what, got, err, want)
				}
			}
			if got := svc.Floor(); got != m.floor {
				t.Fatalf("seed %d op %d: after %s floor = %d, model %d", seed, op, what, got, m.floor)
			}
			for i := 0; i < terms; i++ {
				term := termName(i)
				got, want := svc.Lookup(term), m.lookup(term)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: after %s Lookup(%q) =\n%+v\nmodel\n%+v", seed, op, what, term, got, want)
				}
				if DigestPosts(got) != DigestPosts(want) {
					t.Fatalf("seed %d op %d: after %s digests of %q differ", seed, op, what, term)
				}
			}
			self := svc.node.Self().ID
			from, to := chord.ID(rng.Uint64()), chord.ID(rng.Uint64())
			for _, iv := range [][2]chord.ID{{self, self}, {from, to}} {
				if got, want := svc.PostsInRange(iv[0], iv[1]), m.inRange(iv[0], iv[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: after %s PostsInRange(%d, %d) has %d posts, model %d",
						seed, op, what, iv[0], iv[1], len(got), len(want))
				}
			}
		}
	}
}

// TestPublishBelowFloorIsDropped pins the floor rule on the publish path:
// once a prune raised the owners' floor, a post below it is dead on
// arrival. An uncached read and a cached read that witnessed the floor
// must then see the same PeerList, the dir.post reply counts only the
// posts stored, and Publish reports the shortfall as an error.
func TestPublishBelowFloorIsDropped(t *testing.T) {
	nodes, _, clients, _ := testRing(t, 4, 2)
	live := mkPost("peerA", "omega", 5)
	live.Epoch = 3
	if _, err := clients[0].Publish([]Post{live}); err != nil {
		t.Fatal(err)
	}
	clients[1].EnableCache(time.Hour)
	clients[1].PruneBelow(3)
	stale := mkPost("peerB", "omega", 6)
	stale.Epoch = 1
	if _, err := clients[0].Publish([]Post{stale}); err == nil {
		t.Fatal("publish below every owner's floor succeeded, want an error")
	}
	uncached, err := fetch(clients[2], "omega")
	if err != nil {
		t.Fatal(err)
	}
	cached, err := fetch(clients[1], "omega")
	if err != nil {
		t.Fatal(err)
	}
	if len(uncached) != 1 || uncached[0].Peer != "peerA" {
		t.Fatalf("uncached read = %d posts, want only peerA's epoch-3 post", len(uncached))
	}
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("cached read (%d posts) differs from uncached read (%d posts)", len(cached), len(uncached))
	}
	owners, err := nodes[0].ReplicaSet("omega", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		if n, err := invoke(clients[0], postRPC, o.Addr, []Post{stale}, 0); err != nil || n != 0 {
			t.Fatalf("dir.post of a below-floor post to %s = %d, %v; want 0 stored", o.Addr, n, err)
		}
	}
}

// TestPublishReportsFloorShortfall pins Publish's reading of the dir.post
// reply: a replica group whose owner stored fewer posts than it was sent
// (the rest fell below its prune floor) is a ReplicaError naming both
// counts and is not counted as written, so a batch every owner dropped
// fails the call.
func TestPublishReportsFloorShortfall(t *testing.T) {
	_, _, clients, _ := testRing(t, 4, 2)
	clients[1].PruneBelow(3)
	stale := mkPost("peerB", "omega", 6)
	stale.Epoch = 1
	rep, err := clients[0].Publish([]Post{stale})
	if err == nil || rep.Written != 0 || rep.Groups != 2 {
		t.Fatalf("publish below the floor = %+v, %v; want 0 of 2 groups written and an error", rep, err)
	}
	for _, re := range rep.Errors {
		if re.Op != "post" || re.Unreachable || !strings.Contains(re.Err, "stored 0 of 1 posts") {
			t.Fatalf("replica error %+v, want a reachable post shortfall naming both counts", re)
		}
	}
	// One live and one stale post in a group: the group stored only part
	// of its batch, so it is not written.
	live := mkPost("peerA", "omega", 5)
	live.Epoch = 3
	if rep, err = clients[0].Publish([]Post{live, stale}); err == nil || rep.Written != 0 {
		t.Fatalf("partly stale publish = %+v, %v; want no group written and an error", rep, err)
	}
	if rep, err = clients[0].Publish([]Post{live}); err != nil || rep.Written != rep.Groups || len(rep.Errors) != 0 {
		t.Fatalf("publish at the floor = %+v, %v; want every group written", rep, err)
	}
}
