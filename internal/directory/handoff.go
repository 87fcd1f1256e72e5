package directory

import (
	"fmt"
	"slices"
	"sort"

	"iqn/internal/chord"
	"iqn/internal/transport"
)

// This file implements directory key handoff for both directions of a
// membership change.
//
// Join (pull): a node that joins the ring becomes the owner of every
// term whose hash falls between its predecessor and itself, but the
// posts for those terms still live on the previous owner (its
// successor). Without a transfer, lookups route to the newcomer and
// find nothing until every peer republishes. The newcomer pulls the
// posts for its interval from the successor-list replicas (each keeps
// its copy — they are now the trailing replicas).
//
// Leave (push): a gracefully departing node owns a directory fraction
// that would otherwise be dark until the origin peers republish. Before
// leaving it pushes its whole stored fraction to the first live
// successor (an acknowledged transfer), failing over down the successor
// list, and falls back to re-publishing the posts to their post-
// departure replica sets when every successor is dead.

// RPC methods of the handoff subsystem.
const (
	// methodHandoff serves range extraction (the join-side pull).
	methodHandoff = "dir.handoff"
	// methodHandoffPush accepts a departing node's stored fraction (the
	// leave-side push). The reply acknowledges how many posts landed.
	methodHandoffPush = "dir.handoff_push"
	// methodWithdraw retracts a named peer's posts for a set of terms —
	// a departing peer uses it to pull its own publications out of the
	// directory instead of leaving them to age out over prune epochs.
	methodWithdraw = "dir.withdraw"
)

// handoffRequest asks for all posts whose term hashes into (From, To].
type handoffRequest struct {
	From, To chord.ID
}

// handoffPush is the wire form of the dir.handoff_push RPC. Floor
// carries the departing node's prune floor so the receiver does not
// resurrect posts the departing node had already pruned.
type handoffPush struct {
	Posts []Post
	Floor int64
}

// withdrawRequest names the peer whose posts should be removed and the
// terms to remove them from.
type withdrawRequest struct {
	Peer  string
	Terms []string
}

// registerHandoff wires the handoff RPCs; called from NewService.
func (s *Service) registerHandoff() {
	mux := s.node.Mux()
	handoffRPC.Handle(mux, func(hr handoffRequest) ([]Post, error) {
		return s.PostsInRange(hr.From, hr.To), nil
	})
	handoffPushRPC.Handle(mux, func(hp handoffPush) (int, error) {
		s.Prune(hp.Floor)
		s.store(hp.Posts)
		return len(hp.Posts), nil
	})
	withdrawRPC.Handle(mux, func(wr withdrawRequest) (int, error) {
		return s.removePeerPosts(wr.Peer, wr.Terms), nil
	})
}

// PostsInRange snapshots every stored post whose term hashes into the
// ring interval (from, to], ordered by (term, peer).
func (s *Service) PostsInRange(from, to chord.ID) []Post {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var terms []string
	n := 0
	for term, pl := range s.data {
		if chord.InInterval(from, chord.HashKey(term), to) {
			terms = append(terms, term)
			n += len(pl)
		}
	}
	sort.Strings(terms)
	out := slices.Grow([]Post(nil), n)
	for _, term := range terms {
		out = append(out, s.data[term]...)
	}
	return out
}

// AllPosts snapshots the node's entire stored fraction, ordered by
// (term, peer) — the payload of a leave-side handoff push.
func (s *Service) AllPosts() []Post {
	// The interval (x, x] covers the whole ring.
	self := s.node.Self().ID
	return s.PostsInRange(self, self)
}

// removePeerPosts deletes a peer's posts for the given terms, returning
// how many were removed.
func (s *Service) removePeerPosts(peer string, terms []string) int {
	s.mu.Lock()
	removed := 0
	var touched []string
	for _, term := range terms {
		pl := s.data[term]
		i := peerSlot(pl, peer)
		if i == len(pl) || pl[i].Peer != peer {
			continue
		}
		removed++
		touched = append(touched, term)
		if pl = slices.Delete(pl, i, i+1); len(pl) == 0 {
			delete(s.data, term)
		} else {
			s.data[term] = pl
		}
	}
	floor := s.floor
	s.mu.Unlock()
	s.fireInvalidate(touched, floor)
	return removed
}

// AcquireReport details one owned-range acquisition: how many replica
// sources were tried, how many answered, how many posts were merged in,
// and exactly which sources failed — the per-replica account matching
// the FetchReport/PublishReport style.
type AcquireReport struct {
	// Sources is the number of replica nodes the range was requested from.
	Sources int
	// Answered is how many of them returned their copy.
	Answered int
	// Acquired is the number of posts stored after merging the copies.
	Acquired int
	// Errors lists each source that failed.
	Errors []ReplicaError
}

// AcquireRangeFrom pulls the interval (from, self] from each source in
// turn, merges the copies per term (highest epoch wins), and stores the
// result (store drops what falls below the local prune floor). Sources
// are best-effort: each failure is recorded in the report and the
// remaining sources are still tried; the error is non-nil only when
// sources existed and every one of them failed. A joining node that is
// not yet visible to the ring can pass the range bound it learned from
// its future successor (chord.Node.PredecessorOf) before its own
// predecessor pointer is set.
func (s *Service) AcquireRangeFrom(from chord.ID, sources []chord.NodeRef) (AcquireReport, error) {
	rep := AcquireReport{Sources: len(sources)}
	if len(sources) == 0 {
		return rep, nil
	}
	self := s.node.Self()
	req := handoffRequest{From: from, To: self.ID}
	byTerm := make(map[string][]PeerList)
	for _, src := range sources {
		posts, _, err := handoffRPC.Call(s.node.Network(), src.Addr, req, transport.RetryPolicy{})
		if err != nil {
			rep.Errors = append(rep.Errors, replicaError(src.Addr, "handoff", "", err))
			continue
		}
		rep.Answered++
		for _, p := range posts {
			byTerm[p.Term] = append(byTerm[p.Term], PeerList{p})
		}
	}
	if rep.Answered == 0 {
		first := rep.Errors[0]
		return rep, fmt.Errorf("directory: handoff: all %d sources failed (first: %s: %s)",
			rep.Sources, first.Addr, first.Err)
	}
	var merged []Post
	for _, lists := range byTerm {
		merged = append(merged, MergePeerLists(lists)...)
	}
	rep.Acquired = s.store(merged)
	return rep, nil
}

// HandoffReport details one leave-side push: where the fraction landed,
// how big it was, and what failed along the way.
type HandoffReport struct {
	// Posts is the number of posts in the pushed fraction.
	Posts int
	// Bytes is the size of the push's request frame, the bytes every
	// successor attempt sends.
	Bytes int
	// Target is the successor that acknowledged the push ("" when the
	// push fell back to re-publication).
	Target string
	// Republished counts posts re-published through the normal publish
	// path because no successor acknowledged the push.
	Republished int
	// Errors lists each successor push (or re-publish group) that failed.
	Errors []ReplicaError
}

// PushHandoff transfers a departing node's stored fraction to the first
// live successor (acknowledged), failing over down the successor list.
// When every successor is dead the posts are re-published to their
// post-departure replica sets instead (self excluded), so the fraction
// survives the departure either way. Call it after chord.Node.Leave and
// before Close, while the node still serves RPCs. The error is non-nil
// only when the fraction could not be placed anywhere.
func (c *Client) PushHandoff(s *Service) (HandoffReport, error) {
	posts := s.AllPosts()
	rep := HandoffReport{Posts: len(posts)}
	if len(posts) == 0 {
		return rep, nil
	}
	// One encoding serves every successor attempt, and its size is
	// exactly what a push puts on the wire.
	frame := handoffPushRPC.EncodeRequest(handoffPush{Posts: posts, Floor: s.Floor()})
	rep.Bytes = len(frame)
	self := c.node.Self()
	for _, succ := range c.node.SuccessorList() {
		if succ.IsZero() || succ.Addr == self.Addr {
			continue
		}
		if _, err := invokeFrame(c, handoffPushRPC, succ.Addr, frame, 0); err != nil {
			rep.Errors = append(rep.Errors, replicaError(succ.Addr, "handoff_push", "", err))
			c.Metrics.Counter("directory.handoff.failovers").Inc()
			continue
		}
		rep.Target = succ.Addr
		c.Metrics.Counter("directory.handoff.pushes").Inc()
		c.Metrics.Counter("directory.handoff.posts").Add(int64(len(posts)))
		c.Metrics.Counter("directory.handoff.bytes").Add(int64(rep.Bytes))
		return rep, nil
	}
	// Every successor is gone: place the posts through the publish path,
	// excluding self (whatever lands back here dies with the departure).
	republished, errs := c.republishExcludingSelf(posts)
	rep.Republished = republished
	rep.Errors = append(rep.Errors, errs...)
	if republished == 0 {
		return rep, fmt.Errorf("directory: handoff push: no successor or replica accepted %d posts", len(posts))
	}
	c.Metrics.Counter("directory.handoff.republished").Add(int64(republished))
	return rep, nil
}

// republishExcludingSelf writes posts to their current replica sets
// minus this node, grouped per target address. Returns how many posts
// were acknowledged by at least one target. A post whose replica set
// cannot be resolved is skipped (and reported unplaced by the count).
func (c *Client) republishExcludingSelf(posts []Post) (int, []ReplicaError) {
	idx := make([]int, len(posts))
	for i := range idx {
		idx[i] = i
	}
	addrs, groups, _ := groupByReplica(c, idx, func(i int) string { return posts[i].Term }, c.Replicas+1, c.node.Self().Addr)
	placed := make(map[int]bool, len(posts))
	var errs []ReplicaError
	for _, addr := range addrs {
		group := make([]Post, len(groups[addr]))
		for j, i := range groups[addr] {
			group[j] = posts[i]
		}
		if _, err := invoke(c, postRPC, addr, group, 0); err != nil {
			errs = append(errs, replicaError(addr, "post", "", err))
			continue
		}
		for _, i := range groups[addr] {
			placed[i] = true
		}
	}
	return len(placed), errs
}

// Withdraw retracts a peer's posts for the given terms from their
// replica sets — the departing peer's own publications stop routing
// queries to it immediately instead of aging out over prune epochs.
// Best-effort: unreachable replicas keep their copies (which then die
// by epoch pruning), and terms that cannot be resolved are skipped.
// Returns the number of posts removed.
func (c *Client) Withdraw(peer string, terms []string) int {
	if peer == "" || len(terms) == 0 {
		return 0
	}
	addrs, groups, _ := groupByReplica(c, terms, func(t string) string { return t }, c.Replicas, "")
	removed := 0
	for _, addr := range addrs {
		n, err := invoke(c, withdrawRPC, addr, withdrawRequest{Peer: peer, Terms: groups[addr]}, 0)
		if err != nil {
			continue
		}
		removed += n
	}
	if removed > 0 {
		c.Metrics.Counter("directory.withdrawals").Add(int64(removed))
	}
	// The withdrawn terms changed remotely; drop any cached copies.
	for _, t := range terms {
		c.InvalidateCachedTerm(t)
	}
	return removed
}
