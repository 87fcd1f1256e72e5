package directory

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// chordCounter is a transport.Caller that counts the chord.* RPCs a node
// originates — every lookup hop goes through it.
type chordCounter struct {
	net   transport.Caller
	calls atomic.Int64
}

func (c *chordCounter) Call(addr, method string, req []byte) ([]byte, error) {
	if strings.HasPrefix(method, "chord.") {
		c.calls.Add(1)
	}
	return c.net.Call(addr, method, req)
}

// viewReader is the reading client of a view contract test: node 0's
// client, its chord calls and its directory RPCs counted.
type viewReader struct {
	c     *Client
	chord *chordCounter
	reg   *telemetry.Registry
}

func newViewReader(nodes []*chord.Node, clients []*Client, net transport.Caller) *viewReader {
	r := &viewReader{c: clients[0], chord: &chordCounter{net: net}, reg: telemetry.NewRegistry()}
	nodes[0].SetCaller(r.chord)
	r.c.Metrics = r.reg
	return r
}

// fetch reads terms and returns the lists, the report, and the chord and
// dir.get RPCs the read cost.
func (r *viewReader) fetch(t *testing.T, terms ...string) (map[string]PeerList, FetchReport, int64, int64) {
	t.Helper()
	chord0, gets0 := r.chord.calls.Load(), dirReadRPCs(r.reg)
	lists, rep, err := r.c.FetchAllReportOpts(terms, 0, FetchOptions{})
	if err != nil {
		t.Fatalf("fetch %v: %v", terms, err)
	}
	return lists, rep, r.chord.calls.Load() - chord0, dirReadRPCs(r.reg) - gets0
}

// nodeByAddr finds a ring member by address.
func nodeByAddr(t *testing.T, nodes []*chord.Node, addr string) int {
	t.Helper()
	for i, n := range nodes {
		if n.Self().Addr == addr {
			return i
		}
	}
	t.Fatalf("no node %s", addr)
	return -1
}

// remoteTerm returns a term of the given prefix that node 0 does not own
// (so its owner can fail or leave while the reader stays up), and the
// index of its owner.
func remoteTerm(t *testing.T, nodes []*chord.Node, prefix string) (string, int) {
	t.Helper()
	for i := 0; ; i++ {
		term := fmt.Sprintf("%s-%d", prefix, i)
		owner, err := nodes[1].Lookup(term)
		if err != nil {
			t.Fatal(err)
		}
		if owner.Addr != nodes[0].Self().Addr {
			return term, nodeByAddr(t, nodes, owner.Addr)
		}
	}
}

func stabilize(nodes []*chord.Node) {
	for r := 0; r < 2*len(nodes); r++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	for _, n := range nodes {
		n.FixAllFingers()
	}
}

// TestOwnerViewRepeatAndNeighbourTermsSkipLookups is contracts (a) and
// (b): a second read of the same terms, and a first read of a term whose
// key falls in an interval an owner already confirmed, cost no Chord RPC
// and one dir.get per owner.
func TestOwnerViewRepeatAndNeighbourTermsSkipLookups(t *testing.T) {
	nodes, _, clients, net := testRing(t, 8, 2)
	r := newViewReader(nodes, clients, net)
	var posts []Post
	var terms []string
	for i := 0; i < 20; i++ {
		term := fmt.Sprintf("view-a-%02d", i)
		terms = append(terms, term)
		posts = append(posts, mkPost("p1", term, 3), mkPost("p2", term, 4))
	}
	if _, err := clients[1].Publish(posts); err != nil {
		t.Fatal(err)
	}
	first, _, chordFirst, getsFirst := r.fetch(t, terms...)
	if chordFirst == 0 {
		t.Fatal("the first read of an empty view made no Chord lookup")
	}
	again, _, chordAgain, getsAgain := r.fetch(t, terms...)
	if chordAgain != 0 {
		t.Fatalf("(a) repeating a read made %d Chord RPCs, want 0", chordAgain)
	}
	if getsAgain != getsFirst {
		t.Fatalf("(a) repeating a read made %d dir.get calls, the first read %d", getsAgain, getsFirst)
	}
	for _, term := range terms {
		if len(first[term]) != 2 || len(again[term]) != 2 {
			t.Fatalf("%s: first read %d posts, second %d, want 2", term, len(first[term]), len(again[term]))
		}
	}
	if n := len(r.c.view.entries); n > len(nodes) {
		t.Fatalf("view holds %d entries for a ring of %d", n, len(nodes))
	}

	var fresh string
	for i := 0; fresh == ""; i++ {
		cand := fmt.Sprintf("view-b-%d", i)
		if _, ok := r.c.view.find(chord.HashKey(cand)); ok {
			fresh = cand
		}
	}
	if _, err := clients[1].Publish([]Post{mkPost("p3", fresh, 9)}); err != nil {
		t.Fatal(err)
	}
	got, _, chordFresh, getsFresh := r.fetch(t, fresh)
	if chordFresh != 0 || getsFresh != 1 {
		t.Fatalf("(b) a new term in a known interval made %d Chord RPCs and %d dir.get calls, want 0 and 1", chordFresh, getsFresh)
	}
	if len(got[fresh]) != 1 || got[fresh][0].ListLength != 9 {
		t.Fatalf("(b) %s = %+v", fresh, got[fresh])
	}
}

// TestOwnerViewJoinBeforeCachedOwner is contract (c): a node joins
// between a cached owner and its predecessor and takes the term over
// (handoff runs, then a post lands on the new owner alone). The cached
// owner's reply names the joiner as its predecessor, the term falls
// outside that interval, and the read is redirected to the joiner.
func TestOwnerViewJoinBeforeCachedOwner(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 1)
	r := newViewReader(nodes, clients, net)
	term, oi := remoteTerm(t, nodes, "view-c")
	key := chord.HashKey(term)
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 1), mkPost("p2", term, 2)}); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := r.fetch(t, term); len(got[term]) != 2 {
		t.Fatalf("before the join: %d posts, want 2", len(got[term]))
	}
	// The joiner lands in (key, owner): it takes over (pred, joiner],
	// which holds the key.
	owner := nodes[oi].Self().ID
	var addr string
	for i := 0; addr == ""; i++ {
		cand := fmt.Sprintf("dir-join-%d", i)
		if id := chord.HashAddr(cand); id != owner && chord.InInterval(key, id, owner) {
			addr = cand
		}
	}
	joiner, err := chord.New(addr, net, chord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(joiner)
	if err := joiner.Join(nodes[1].Self().Addr); err != nil {
		t.Fatal(err)
	}
	stabilize(append(append([]*chord.Node{}, nodes...), joiner))
	if _, err := svc.AcquireRangeFrom(joiner.Predecessor().ID, joiner.SuccessorList()); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].Publish([]Post{mkPost("p3", term, 3)}); err != nil {
		t.Fatal(err)
	}

	got, rep, _, gets := r.fetch(t, term)
	if len(got[term]) != 3 {
		t.Fatalf("(c) after the join: %d posts, want 3 (the cached owner was read as if it still owned the term)", len(got[term]))
	}
	if rep.Winners[term] != addr {
		t.Fatalf("(c) served by %s, want the joiner %s", rep.Winners[term], addr)
	}
	if gets != 2 {
		t.Fatalf("(c) the redirect made %d dir.get calls, want 2: the cached owner, then the joiner", gets)
	}
	if _, _, chordRPCs, gets := r.fetch(t, term); chordRPCs != 0 || gets != 1 {
		t.Fatalf("(c) the read after the redirect made %d Chord RPCs and %d dir.get calls, want 0 and 1", chordRPCs, gets)
	}
}

// TestOwnerViewOwnerCrash is contract (d): the cached owner crashes; the
// read fails over, the entry is dropped, and the term is read again
// through a real lookup.
func TestOwnerViewOwnerCrash(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 2)
	r := newViewReader(nodes, clients, net)
	term, oi := remoteTerm(t, nodes, "view-d")
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 5)}); err != nil {
		t.Fatal(err)
	}
	r.fetch(t, term)
	key := chord.HashKey(term)
	if _, ok := r.c.view.find(key); !ok {
		t.Fatal("the owner's interval did not enter the view")
	}
	dead := nodes[oi].Self().Addr
	net.SetPartitioned(dead, true)

	got, rep, chordRPCs, gets := r.fetch(t, term)
	if len(got[term]) != 1 || got[term][0].ListLength != 5 {
		t.Fatalf("(d) after the crash: %+v", got[term])
	}
	if rep.Winners[term] == dead || len(rep.Errors) == 0 {
		t.Fatalf("(d) winner %s, errors %+v: want a replica to serve and the dead owner blamed", rep.Winners[term], rep.Errors)
	}
	for _, e := range rep.Errors {
		if e.Addr != dead {
			t.Fatalf("(d) errors %+v blame a live node", rep.Errors)
		}
	}
	// The replica's answer is not trusted for a view-routed term (its
	// replica set may be out of date), so the term is read again through
	// a lookup, which on an unhealed ring still names the dead owner.
	if chordRPCs == 0 || gets > 4 {
		t.Fatalf("(d) the fail-over made %d Chord RPCs and %d dir.get calls, want a lookup and ≤ 4", chordRPCs, gets)
	}
	if addrs, ok := r.c.view.find(key); ok && addrs[0] == dead {
		t.Fatalf("(d) the view still routes %s to the dead owner", term)
	}
	for _, addrs := range r.c.view.entries {
		for _, a := range addrs.addrs {
			if a == dead {
				t.Fatalf("(d) a view entry still names the dead owner: %+v", addrs)
			}
		}
	}
}

// TestOwnerViewJoinAfterCachedOwnerThenCrash extends contract (d) to a
// replica set that moved under the entry: a node joins between the
// cached owner and its successor, so a later post lands on the owner and
// the joiner only, and then the owner crashes. The successor the entry
// still names answers with the older list; the read must not take it,
// and resolves the replica set afresh as an uncached read would.
func TestOwnerViewJoinAfterCachedOwnerThenCrash(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 2)
	r := newViewReader(nodes, clients, net)
	var term string
	var oi int
	for i := 0; ; i++ {
		term, oi = remoteTerm(t, nodes, fmt.Sprintf("view-d3-%d", i))
		if oi != 1 { // the publisher stays up
			break
		}
	}
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 1)}); err != nil {
		t.Fatal(err)
	}
	r.fetch(t, term)
	owner, succ := nodes[oi].Self(), nodes[oi].Successor()
	if _, ok := r.c.view.find(chord.HashKey(term)); !ok {
		t.Fatal("the owner's interval did not enter the view")
	}
	var addr string
	for i := 0; addr == ""; i++ {
		cand := fmt.Sprintf("dir-join-%d", i)
		if id := chord.HashAddr(cand); id != succ.ID && chord.InInterval(owner.ID, id, succ.ID) {
			addr = cand
		}
	}
	joiner, err := chord.New(addr, net, chord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	NewService(joiner)
	if err := joiner.Join(nodes[1].Self().Addr); err != nil {
		t.Fatal(err)
	}
	stabilize(append(append([]*chord.Node{}, nodes...), joiner))
	if rs, err := nodes[1].ReplicaSet(term, 2); err != nil || len(rs) != 2 || rs[0].Addr != owner.Addr || rs[1].Addr != addr {
		t.Fatalf("replica set after the join = %+v, %v; want the owner and the joiner", rs, err)
	}
	if _, err := clients[1].Publish([]Post{mkPost("p2", term, 2)}); err != nil {
		t.Fatal(err)
	}
	net.SetPartitioned(owner.Addr, true)

	got, rep, _, _ := r.fetch(t, term)
	if rep.Winners[term] != addr {
		t.Fatalf("served by %s, want the joiner %s (the successor %s missed the later post)", rep.Winners[term], addr, succ.Addr)
	}
	found := false
	for _, p := range got[term] {
		found = found || p.Peer == "p2"
	}
	if !found {
		t.Fatalf("the read lost the post written after the join: %+v", got[term])
	}
}

// TestOwnerViewFailedLegsLeaveView extends contract (d) to a group no
// replica answers: the owner and its replica both crash. Every failed
// leg drops each entry that names its address, the predecessor's entry
// too (it lists the dead owner as its replica), and the term is resolved
// afresh on the healed ring.
func TestOwnerViewFailedLegsLeaveView(t *testing.T) {
	nodes, _, clients, net := testRing(t, 8, 2)
	r := newViewReader(nodes, clients, net)
	up := func(addr string) bool { return addr == nodes[0].Self().Addr || addr == nodes[1].Self().Addr }
	var term, predTerm string
	var owner, replica *chord.Node
	for i := 0; owner == nil; i++ {
		cand, oi := remoteTerm(t, nodes, fmt.Sprintf("view-d2-%d", i))
		succ := nodes[oi].Successor().Addr
		if up(succ) {
			continue
		}
		term, owner, replica = cand, nodes[oi], nodes[nodeByAddr(t, nodes, succ)]
	}
	for i := 0; predTerm == ""; i++ {
		cand := fmt.Sprintf("view-d2-pred-%d", i)
		if ref, err := nodes[1].Lookup(cand); err != nil {
			t.Fatal(err)
		} else if ref.Addr == owner.Predecessor().Addr {
			predTerm = cand
		}
	}
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 1), mkPost("p1", predTerm, 2)}); err != nil {
		t.Fatal(err)
	}
	r.fetch(t, term, predTerm)
	dead := []string{owner.Self().Addr, replica.Self().Addr}
	for _, addr := range dead {
		net.SetPartitioned(addr, true)
	}
	var survivors []*chord.Node
	for _, n := range nodes {
		if n != owner && n != replica {
			survivors = append(survivors, n)
		}
	}
	stabilize(survivors)

	got, rep, _, _ := r.fetch(t, term)
	if len(got[term]) != 0 {
		t.Fatalf("both replicas are dead, yet %s read %+v", term, got[term])
	}
	if len(rep.Errors) != 2 || rep.Errors[0].Addr != dead[0] || rep.Errors[1].Addr != dead[1] {
		t.Fatalf("errors %+v, want the owner and its replica blamed", rep.Errors)
	}
	for _, e := range r.c.view.entries {
		for _, a := range e.addrs {
			if a == dead[0] || a == dead[1] {
				t.Fatalf("a view entry still names the dead %s: %+v", a, e)
			}
		}
	}
}

// TestOwnerViewOwnerLeaves is contract (e): the cached owner leaves
// gracefully (handoff push, leave notices, close); the next read finds
// it gone, resolves the term afresh and reads the new owner.
func TestOwnerViewOwnerLeaves(t *testing.T) {
	nodes, services, clients, net := testRing(t, 6, 1)
	r := newViewReader(nodes, clients, net)
	term, oi := remoteTerm(t, nodes, "view-e")
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 6), mkPost("p2", term, 7)}); err != nil {
		t.Fatal(err)
	}
	r.fetch(t, term)
	leaver := nodes[oi]
	gone := leaver.Self().Addr
	if _, err := clients[oi].PushHandoff(services[oi]); err != nil {
		t.Fatal(err)
	}
	leaver.Leave()
	leaver.Close()

	got, rep, chordRPCs, _ := r.fetch(t, term)
	if len(got[term]) != 2 {
		t.Fatalf("(e) after the leave: %d posts, want 2", len(got[term]))
	}
	want, err := nodes[0].Lookup(term)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winners[term] != want.Addr || want.Addr == gone {
		t.Fatalf("(e) served by %s, want the new owner %s", rep.Winners[term], want.Addr)
	}
	if chordRPCs == 0 {
		t.Fatal("(e) a read past a departed owner made no lookup")
	}
}

// TestOwnerViewUnknownPredecessor is contract (f): an owner that has
// lost its predecessor states no interval, so a read the view routed to
// it is validated by a real lookup before the reply is accepted.
func TestOwnerViewUnknownPredecessor(t *testing.T) {
	nodes, _, clients, net := testRing(t, 6, 1)
	r := newViewReader(nodes, clients, net)
	var term string
	var oi int
	for i := 0; ; i++ {
		term, oi = remoteTerm(t, nodes, fmt.Sprintf("view-f%d", i))
		// The predecessor must be neither the reader nor the term's
		// publisher, which stay up.
		if p := nodes[oi].Predecessor().Addr; p != nodes[0].Self().Addr && p != nodes[1].Self().Addr {
			break
		}
	}
	if _, err := clients[1].Publish([]Post{mkPost("p1", term, 8)}); err != nil {
		t.Fatal(err)
	}
	r.fetch(t, term)
	owner := nodes[oi]
	net.SetPartitioned(owner.Predecessor().Addr, true)
	owner.Stabilize() // finds the predecessor dead and forgets it
	if !owner.Predecessor().IsZero() {
		t.Fatal("the owner still names a predecessor")
	}

	got, rep, chordRPCs, gets := r.fetch(t, term)
	if len(got[term]) != 1 || rep.Winners[term] != owner.Self().Addr {
		t.Fatalf("(f) %+v served by %s", got[term], rep.Winners[term])
	}
	if chordRPCs == 0 || gets != 1 {
		t.Fatalf("(f) made %d Chord RPCs and %d dir.get calls, want a validating lookup and 1", chordRPCs, gets)
	}
}

// TestOwnerViewBoundedByRing is contract (g): 10,000 distinct terms,
// read by four goroutines through one client, leave at most one view
// entry per ring node, and once every owner has confirmed its interval a
// read of new terms makes no Chord RPC.
func TestOwnerViewBoundedByRing(t *testing.T) {
	nodes, _, clients, net := testRing(t, 8, 2)
	r := newViewReader(nodes, clients, net)
	const readers, perReader, batch = 4, 2500, 250
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < perReader; b += batch {
				terms := make([]string, batch)
				for i := range terms {
					terms[i] = fmt.Sprintf("view-g-%d-%d", g, b+i)
				}
				if _, _, err := r.c.FetchAllReportOpts(terms, 0, FetchOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.c.view.entries); n == 0 || n > len(nodes) {
		t.Fatalf("(g) 10,000 terms left %d view entries for a ring of %d", n, len(nodes))
	}
	terms := make([]string, batch)
	for i := range terms {
		terms[i] = fmt.Sprintf("view-g-last-%d", i)
	}
	if _, _, chordRPCs, gets := r.fetch(t, terms...); chordRPCs != 0 || gets > int64(len(nodes)) {
		t.Fatalf("(g) a read over a full view made %d Chord RPCs and %d dir.get calls, want 0 and ≤ %d", chordRPCs, gets, len(nodes))
	}
}

// TestOwnerViewIntervals pins the view's interval arithmetic: lookups
// across the wrap, replacement of overlapping entries, and drop by any
// named address.
func TestOwnerViewIntervals(t *testing.T) {
	var v ownerView
	v.learn(100, 200, []string{"b", "c"})
	v.learn(900, 50, []string{"a", "b"}) // wraps past zero
	for _, tc := range []struct {
		key  chord.ID
		want string
	}{{150, "b"}, {200, "b"}, {950, "a"}, {0, "a"}, {50, "a"}, {100, ""}, {60, ""}, {500, ""}} {
		addrs, ok := v.find(tc.key)
		if got := ""; ok {
			got = addrs[0]
			if got != tc.want {
				t.Fatalf("find(%d) = %s, want %q", tc.key, got, tc.want)
			}
		} else if tc.want != "" {
			t.Fatalf("find(%d) missed, want %s", tc.key, tc.want)
		}
	}
	v.learn(150, 200, []string{"b", "c"}) // the owner learned of a joiner at 150
	if _, ok := v.find(120); ok {
		t.Fatal("a replaced interval still answers")
	}
	v.learn(40, 300, []string{"x"}) // overlaps both entries
	if n := len(v.entries); n != 1 {
		t.Fatalf("after an overlapping entry the view holds %d entries, want 1", n)
	}
	v.learn(300, 400, []string{"y", "x"})
	v.drop("x")
	if n := len(v.entries); n != 0 {
		t.Fatalf("after dropping x the view holds %d entries, want 0", n)
	}
	v.learn(7, 7, []string{"solo"}) // a one-node ring owns the whole circle
	if addrs, ok := v.find(123456); !ok || addrs[0] != "solo" {
		t.Fatal("a one-node ring's interval does not cover the circle")
	}

	var full ownerView
	for i := 0; i <= chord.MaxRing; i++ {
		full.learn(chord.ID(10*i), chord.ID(10*i+5), []string{fmt.Sprint(i)})
	}
	if n := len(full.entries); n != chord.MaxRing {
		t.Fatalf("%d disjoint intervals left %d entries, want the cap %d", chord.MaxRing+1, n, chord.MaxRing)
	}
	if _, ok := full.find(5); ok {
		t.Fatal("a full view kept its lowest entry")
	}
	if addrs, ok := full.find(10*chord.MaxRing + 5); !ok || addrs[0] != fmt.Sprint(chord.MaxRing) {
		t.Fatal("a full view did not take the newest entry")
	}
}
