package directory

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"iqn/internal/chord"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// RPC methods of the replica-repair subsystem.
const (
	// methodDigest returns a TermDigest of the node's stored PeerList for
	// a term — the cheap first phase of anti-entropy divergence checks.
	methodDigest = "dir.digest"
	// methodRepair replaces a node's stored PeerList for a term wholesale
	// (REPLACE, not upsert: extra stale posts must disappear so repaired
	// replicas end up byte-identical).
	methodRepair = "dir.repair"
)

// ReplicaError reports one directory replica that failed during a
// publish, fetch, or repair — the per-replica analogue of the query
// path's PerPeerError: degradation is reported, never silently absorbed
// by fail-over.
type ReplicaError struct {
	// Addr is the replica that failed.
	Addr string
	// Op is the directory operation ("post", "get", "digest", "repair").
	Op string
	// Term is the term involved ("" for batched operations spanning
	// several terms).
	Term string
	// Err is the final error text.
	Err string
	// Unreachable distinguishes connectivity failures and overload
	// rejects (retryable, replica can take over) from remote application
	// errors.
	Unreachable bool
}

// PublishReport details one Publish call: how many replica write groups
// were attempted and exactly which replicas failed.
type PublishReport struct {
	// Groups is the number of per-replica write groups attempted.
	Groups int
	// Written is how many groups stored every post they were sent.
	Written int
	// Errors lists each replica write that failed or stored fewer posts
	// than it was sent (posts below the owner's prune floor are dropped).
	Errors []ReplicaError
}

// FetchReport details one FetchAllReportOpts call: which replica served
// each term group and which replicas failed along the way.
type FetchReport struct {
	// Winners maps each term to the replica address that served it.
	Winners map[string]string
	// Errors lists each failed replica call encountered.
	Errors []ReplicaError
}

func (r *FetchReport) addError(e ReplicaError) { r.Errors = append(r.Errors, e) }

// TermDigest summarizes one node's stored PeerList for a term. Two
// replicas with equal digests store byte-identical PeerLists; comparing
// digests is the cheap divergence check anti-entropy runs before moving
// any posts.
type TermDigest struct {
	// Count is the number of stored posts.
	Count int
	// MaxEpoch is the highest post epoch stored.
	MaxEpoch int64
	// Digest is an FNV-64a over the canonical (peer-sorted) post contents.
	Digest uint64
}

// repairRequest is the wire form of the dir.repair RPC. Floor carries
// the repairer's merged prune floor: the receiving replica raises its
// own floor to match, so a replica that slept through a prune round
// converges to the pruned state instead of keeping (or re-spreading)
// dead posts.
type repairRequest struct {
	Term  string
	Posts PeerList
	Floor int64
}

// digestResponse is the wire form of the dir.digest reply: the term's
// digest plus the serving node's prune floor. The floor rides along so
// the repairer can merge at the highest floor any replica has seen.
type digestResponse struct {
	Dig   TermDigest
	Floor int64
}

// registerRepair wires the digest and repair RPCs; called from NewService.
func (s *Service) registerRepair() {
	mux := s.node.Mux()
	digestRPC.Handle(mux, func(term string) (digestResponse, error) {
		return digestResponse{Dig: DigestPosts(s.Lookup(term)), Floor: s.Floor()}, nil
	})
	repairRPC.Handle(mux, func(r repairRequest) (int, error) {
		s.Prune(r.Floor)
		s.ReplaceTerm(r.Term, r.Posts)
		return len(r.Posts), nil
	})
}

// Lookup returns a copy of the node's stored PeerList for a term,
// sorted by peer name (the local fraction only — use
// Client.FetchAllReportOpts for a network read).
func (s *Service) Lookup(term string) PeerList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.data[term])
}

// StoredTerms returns every term this node stores posts for, sorted.
func (s *Service) StoredTerms() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.data))
	for t := range s.data {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ReplaceTerm overwrites the node's stored posts for a term wholesale
// (an empty list deletes the term). Unlike store's upsert, replacement
// also removes posts absent from the new list — the semantics repair
// needs so divergent replicas converge to identical state. Posts below
// the node's prune floor are dropped, as store drops them, and what is
// left may come in any order: SortedByPeer sanitizes it.
func (s *Service) ReplaceTerm(term string, posts PeerList) {
	s.mu.Lock()
	if pl := SortedByPeer(applyEpochFloor(slices.Clone(posts), s.floor)); len(pl) == 0 {
		delete(s.data, term)
	} else {
		// As in store: the key gets its own copy, so it never pins a
		// decoded request.
		s.data[strings.Clone(term)] = pl
	}
	floor := s.floor
	s.mu.Unlock()
	s.fireInvalidate([]string{term}, floor)
}

// SortedByPeer returns pl when it is strictly sorted by peer name, as
// the directory stores and serves it. A list that is not (a repair
// payload, or the reply of a buggy or hostile directory) is sorted on a
// copy and reduced to one post per peer, the last one in list order
// winning — the upsert order store would apply.
func SortedByPeer(pl PeerList) PeerList {
	strict := true
	for i := 1; i < len(pl) && strict; i++ {
		strict = pl[i-1].Peer < pl[i].Peer
	}
	if strict {
		return pl
	}
	out := slices.Clone(pl)
	slices.SortStableFunc(out, func(a, b Post) int { return strings.Compare(a.Peer, b.Peer) })
	w := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].Peer == out[i].Peer {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// DigestPosts computes the canonical digest of a PeerList: every
// identity and statistics field of every post, hashed in peer order
// (SortedByPeer, so the digest is order-insensitive). Any difference a
// merge could repair — a missing post, a stale epoch, a diverged
// synopsis — changes the digest.
func DigestPosts(pl PeerList) TermDigest {
	sorted := SortedByPeer(pl)
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	writeBytes := func(b []byte) {
		writeInt(int64(len(b)))
		h.Write(b)
	}
	d := TermDigest{Count: len(sorted)}
	for _, p := range sorted {
		writeStr(p.Peer)
		writeStr(p.PeerAddr)
		writeStr(p.Term)
		writeInt(int64(p.ListLength))
		writeFloat(p.MaxScore)
		writeFloat(p.AvgScore)
		writeInt(int64(p.TermSpaceSize))
		writeInt(int64(p.NumDocs))
		writeInt(p.Epoch)
		writeBytes(p.Synopsis)
		writeInt(int64(len(p.Histogram)))
		for _, c := range p.Histogram {
			writeFloat(c.Lo)
			writeFloat(c.Hi)
			writeInt(int64(c.Count))
			writeBytes(c.Synopsis)
		}
		if p.Epoch > d.MaxEpoch {
			d.MaxEpoch = p.Epoch
		}
	}
	d.Digest = h.Sum64()
	return d
}

// MergePeerLists unions replica copies of one term's PeerList into the
// repaired truth: per peer, the post with the highest epoch wins, and
// the merged set is then floored at its own maximum epoch — posts from
// earlier publication rounds are dropped, matching the prune discipline
// (PruneBelow(epoch) removes everything below the current round). The
// floor is what keeps a revived stale replica from resurrecting the
// posts of a peer that died rounds ago.
func MergePeerLists(lists []PeerList) PeerList {
	best := make(map[string]Post)
	var maxEpoch int64
	for _, pl := range lists {
		for _, p := range pl {
			if cur, ok := best[p.Peer]; !ok || p.Epoch > cur.Epoch {
				best[p.Peer] = p
			}
			if p.Epoch > maxEpoch {
				maxEpoch = p.Epoch
			}
		}
	}
	out := make(PeerList, 0, len(best))
	for _, p := range best {
		if p.Epoch >= maxEpoch {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// applyEpochFloor drops every post below the prune floor, in place. The
// merged-max floor inside MergePeerLists cannot see a floor held only as
// node state (a replica pruned to empty has no posts left to witness the
// epoch), so RepairTerm applies the replica set's floor on top; a
// Service applies its own floor on every write.
func applyEpochFloor(pl PeerList, floor int64) PeerList {
	out := pl[:0]
	for _, p := range pl {
		if p.Epoch >= floor {
			out = append(out, p)
		}
	}
	return out
}

// replicaError builds the report entry for one failed replica call.
func replicaError(addr, op, term string, err error) ReplicaError {
	return ReplicaError{
		Addr:        addr,
		Op:          op,
		Term:        term,
		Err:         err.Error(),
		Unreachable: transport.Retryable(err),
	}
}

// FetchAllReportOpts retrieves the PeerLists of several terms with a
// full account: terms that share a responsible node are read in one
// dir.get, walking the owner's replica set in order (hedged after
// HedgeDelay when set), with per-attempt timeouts capped by budget
// (≤ 0: uncapped) and every failed replica reported. With the read
// cache enabled, cached terms are served locally (no Winners entry — no
// replica was asked) and concurrent fetches of the same term coalesce
// onto one RPC; opt.Fresh bypasses the cache and refreshes it. The
// returned map is complete on nil error.
func (c *Client) FetchAllReportOpts(terms []string, budget time.Duration, opt FetchOptions) (map[string]PeerList, FetchReport, error) {
	start := time.Now()
	out, rep, err := c.fetchAllCached(terms, budget, opt)
	if c.Metrics != nil {
		c.Metrics.Counter("directory.fetches").Inc()
		c.Metrics.Histogram("directory.fetch_ms", telemetry.DefaultLatencyBounds).
			Observe(time.Since(start).Milliseconds())
		if n := len(rep.Errors); n > 0 {
			c.Metrics.Counter("directory.fetch_errors").Add(int64(n))
		}
	}
	return out, rep, err
}

// fetchAllReport reads terms in owner groups. A term whose key falls in
// an interval of the owner view is read from that owner directly; the
// rest resolve their replica set by a Chord lookup. A view-routed term
// whose reply fails validation (confirm), or whose every replica failed,
// is read again in a second round, resolved by a real lookup and
// accepted as an uncached read is.
func (c *Client) fetchAllReport(terms []string, budget time.Duration) (map[string]PeerList, FetchReport, error) {
	rep := FetchReport{Winners: make(map[string]string, len(terms))}
	out := make(map[string]PeerList, len(terms))
	for pending, useView := terms, true; len(pending) > 0; useView = false {
		groups, err := c.groupByOwner(pending, useView)
		if err != nil {
			return nil, rep, err
		}
		pending = nil
		for _, g := range groups {
			reply, winner, err := c.readGroup(g.addrs, g.terms, budget, &rep)
			if err != nil && slices.Contains(g.viewed, true) {
				// Every replica the view named failed, and each left the
				// view: resolve the group afresh, as an uncached read would.
				pending = append(pending, g.terms...)
				continue
			}
			if err != nil {
				return nil, rep, fmt.Errorf("directory: fetch %q: %w", g.terms[0], err)
			}
			stale := c.confirm(g, winner, reply.PredID)
			for i, t := range g.terms {
				if slices.Contains(stale, i) {
					pending = append(pending, t)
					continue
				}
				out[t] = reply.Lists[t]
				rep.Winners[t] = winner
			}
		}
	}
	return out, rep, nil
}

// ownerGroup is the terms one dir.get reads: they share an owner and so
// its replica set (the replicas are the owner's ring successors), and
// one replica walk serves them all. viewed marks the terms the owner
// view routed here; only their replies need validating.
type ownerGroup struct {
	addrs  []string
	terms  []string
	viewed []bool
}

// groupByOwner resolves each term's replica set, from the owner view
// when useView allows and it knows the key, by a Chord lookup otherwise,
// and groups the terms by owner, owners in address order. A group a
// lookup joins takes the lookup's replica set, the fresher of the two.
func (c *Client) groupByOwner(terms []string, useView bool) ([]*ownerGroup, error) {
	byOwner := make(map[string]*ownerGroup)
	var groups []*ownerGroup
	for _, t := range terms {
		var addrs []string
		viewed := false
		if useView {
			addrs, viewed = c.view.find(chord.HashKey(t))
		}
		if !viewed {
			replicas, err := c.node.ReplicaSet(t, c.Replicas)
			if err != nil {
				return nil, err
			}
			if len(replicas) == 0 {
				// No replica resolved (a degenerate ring view): report it
				// as unreachable rather than wrapping a nil error downstream.
				return nil, fmt.Errorf("directory: fetch %q: %w", t, transport.ErrUnreachable)
			}
			addrs = make([]string, len(replicas))
			for i, r := range replicas {
				addrs[i] = r.Addr
			}
		}
		g := byOwner[addrs[0]]
		if g == nil {
			g = &ownerGroup{addrs: addrs}
			byOwner[addrs[0]] = g
			groups = append(groups, g)
		} else if !viewed {
			g.addrs = addrs
		}
		g.terms = append(g.terms, t)
		g.viewed = append(g.viewed, viewed)
	}
	slices.SortFunc(groups, func(a, b *ownerGroup) int { return strings.Compare(a.addrs[0], b.addrs[0]) })
	return groups, nil
}

// confirm checks one group's reply against the ring interval its server
// states, (pred, winner], updates the owner view, and returns the
// indexes of the group's terms the reply must not answer:
//   - a reply from a replica rather than the owner (the owner leg failed
//     or lost a hedge race) drops the owner from the view; it answers
//     the terms a lookup routed, as an uncached read accepts it, but a
//     view-routed term is stale — the entry's replica set dates from
//     when it was learned, and a node that joined after the owner since
//     holds the writes the named replica missed;
//   - an owner that knows its predecessor enters the view with its
//     interval, and a view-routed term outside that interval is stale —
//     the ring moved under the entry (a node joined before it);
//   - an owner that does not know its predecessor confirms nothing: each
//     view-routed term is checked by a real lookup, and is stale unless
//     the lookup names the same owner.
//
// Terms a lookup routed are never stale: the reply answers them exactly
// as it would without the view.
func (c *Client) confirm(g *ownerGroup, winner string, pred chord.ID) (stale []int) {
	owner := g.addrs[0]
	if winner != owner {
		c.view.drop(owner)
		for i, viewed := range g.viewed {
			if viewed {
				stale = append(stale, i)
			}
		}
		return stale
	}
	ownerID := chord.HashAddr(owner)
	if pred != 0 {
		c.view.learn(pred, ownerID, g.addrs)
	}
	for i, t := range g.terms {
		if !g.viewed[i] {
			continue
		}
		if pred != 0 {
			if !chord.InInterval(pred, chord.HashKey(t), ownerID) {
				stale = append(stale, i)
			}
		} else if ref, err := c.node.Lookup(t); err != nil || ref.Addr != owner {
			stale = append(stale, i)
		}
	}
	return stale
}

// readGroup reads one owner group's PeerLists through the replica loop:
// one dir.get per leg, owner first, the next replica on a failure (and
// after HedgeDelay, when set). Each leg is one invoke, so it follows the
// retry policy and the budget-capped per-attempt timeout. Every failed
// leg the loop waited for is blamed in rep and leaves the owner view.
func (c *Client) readGroup(addrs, group []string, budget time.Duration, rep *FetchReport) (getReply, string, error) {
	frame := getRPC.EncodeRequest(group)
	h := transport.Hedged[getReply]{Delay: c.HedgeDelay}
	// Only a hedge can move these counters; unhedged clients leave them
	// out of the registry.
	if c.HedgeDelay > 0 {
		h.Hedges = c.Metrics.Counter("transport.hedges")
		h.HedgeWins = c.Metrics.Counter("transport.hedge_wins")
	}
	return h.Call(addrs, func(addr string) (getReply, error) {
		return invokeFrame(c, getRPC, addr, frame, budget)
	}, func(addr string, err error) {
		rep.addError(replicaError(addr, "get", "", err))
		c.view.drop(addr)
	})
}

// RepairTerm runs one anti-entropy repair of a term's replica set:
// digests from every reachable replica first (the cheap phase), and
// only when they disagree are full copies fetched, merged, and pushed
// back to the divergent replicas. Returns how many replicas were
// patched. Unreachable replicas are skipped — they are repaired by a
// later sweep once they return.
func (c *Client) RepairTerm(term string) (repaired int, err error) {
	replicas, err := c.node.ReplicaSet(term, c.Replicas)
	if err != nil {
		return 0, err
	}
	type state struct {
		addr string
		dig  TermDigest
	}
	var live []state
	var floor int64
	for _, r := range replicas {
		d, err := invoke(c, digestRPC, r.Addr, term, 0)
		if err != nil {
			continue
		}
		live = append(live, state{addr: r.Addr, dig: d.Dig})
		if d.Floor > floor {
			floor = d.Floor
		}
	}
	if len(live) <= 1 {
		return 0, nil
	}
	same := true
	for _, s := range live[1:] {
		if s.dig != live[0].dig {
			same = false
			break
		}
	}
	if same {
		return 0, nil
	}
	lists := make([]PeerList, 0, len(live))
	byAddr := make(map[string]PeerList, len(live))
	for _, s := range live {
		got, err := invoke(c, getRPC, s.addr, []string{term}, 0)
		if err != nil {
			continue
		}
		lists = append(lists, got.Lists[term])
		byAddr[s.addr] = got.Lists[term]
	}
	merged := applyEpochFloor(MergePeerLists(lists), floor)
	want := DigestPosts(merged)
	for _, s := range live {
		pl, ok := byAddr[s.addr]
		if !ok || DigestPosts(pl) == want {
			continue
		}
		if _, err := invoke(c, repairRPC, s.addr, repairRequest{Term: term, Posts: merged, Floor: floor}, 0); err != nil {
			continue
		}
		repaired++
	}
	if repaired > 0 {
		c.Metrics.Counter("directory.anti_entropy_repairs").Add(int64(repaired))
	}
	// The repair witnessed the replica set's floor and (possibly) changed
	// the term's truth — keep the read cache coherent: refresh a cached
	// copy with the merged result, and evict anything the floor kills.
	c.ObserveFloor(floor)
	if c.cache != nil && c.cache.refreshIfCached(term, merged) {
		c.Metrics.Counter("directory.cache_invalidations").Inc()
	}
	return repaired, nil
}

// AntiEntropy sweeps a set of terms through RepairTerm (typically the
// terms a node's own directory fraction stores — Service.StoredTerms)
// and returns how many replica patches were pushed. No peer republishes
// anything: the sweep converges replicas on the posts they already
// collectively hold.
func (c *Client) AntiEntropy(terms []string) (repaired int) {
	for _, t := range terms {
		n, err := c.RepairTerm(t)
		if err != nil {
			continue
		}
		repaired += n
	}
	return repaired
}
