package directory

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
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
	// methodGetRepair returns a term's full PeerList together with the
	// node's prune floor — the read quorum path needs both in one round
	// trip to merge without resurrecting pruned posts.
	methodGetRepair = "dir.get_repair"
)

// ReplicaError reports one directory replica that failed during a
// publish, fetch, or repair — the per-replica analogue of the query
// path's PerPeerError: degradation is reported, never silently absorbed
// by fail-over.
type ReplicaError struct {
	// Addr is the replica that failed.
	Addr string
	// Op is the directory operation ("post", "get", "get_batch",
	// "digest", "repair").
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
	// Written is how many groups were acknowledged.
	Written int
	// Errors lists each replica write that failed.
	Errors []ReplicaError
}

// FetchReport details one FetchAllReportOpts call: which replica served each term
// group, which replicas failed along the way, and how many divergent
// replicas were patched by read-repair.
type FetchReport struct {
	// Winners maps each term to the replica address that served it.
	Winners map[string]string
	// Errors lists each failed replica call encountered.
	Errors []ReplicaError
	// Repaired counts read-repair patches pushed to divergent replicas.
	Repaired int
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

// getRepairResponse is the wire form of the dir.get_repair reply.
type getRepairResponse struct {
	Posts PeerList
	Floor int64
}

// registerRepair wires the digest and repair RPCs; called from NewService.
func (s *Service) registerRepair() {
	mux := s.node.Mux()
	mux.Handle(methodDigest, func(req []byte) ([]byte, error) {
		var term string
		if err := transport.Unmarshal(req, &term); err != nil {
			return nil, err
		}
		return transport.Marshal(digestResponse{Dig: DigestPosts(s.Lookup(term)), Floor: s.Floor()})
	})
	mux.Handle(methodRepair, func(req []byte) ([]byte, error) {
		var r repairRequest
		if err := transport.Unmarshal(req, &r); err != nil {
			return nil, err
		}
		s.raiseFloor(r.Floor)
		s.ReplaceTerm(r.Term, applyEpochFloor(r.Posts, r.Floor))
		return transport.Marshal(len(r.Posts))
	})
	mux.Handle(methodGetRepair, func(req []byte) ([]byte, error) {
		var term string
		if err := transport.Unmarshal(req, &term); err != nil {
			return nil, err
		}
		return transport.Marshal(getRepairResponse{Posts: s.Lookup(term), Floor: s.Floor()})
	})
}

// Lookup returns the node's stored PeerList for a term, sorted by peer
// name (the local fraction only — use Client.Fetch for a network read).
func (s *Service) Lookup(term string) PeerList { return s.peerList(term) }

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
// needs so divergent replicas converge to identical state.
func (s *Service) ReplaceTerm(term string, posts PeerList) {
	s.mu.Lock()
	if len(posts) == 0 {
		delete(s.data, term)
	} else {
		byPeer := make(map[string]Post, len(posts))
		for _, p := range posts {
			byPeer[p.Peer] = p
		}
		s.data[term] = byPeer
	}
	floor := s.floor
	s.mu.Unlock()
	s.fireInvalidate([]string{term}, floor)
}

// DigestPosts computes the canonical digest of a PeerList: every
// identity and statistics field of every post, hashed in peer order.
// Any difference a merge could repair — a missing post, a stale epoch,
// a diverged synopsis — changes the digest.
func DigestPosts(pl PeerList) TermDigest {
	sorted := append(PeerList(nil), pl...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Peer < sorted[j].Peer })
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

// applyEpochFloor drops every post below the prune floor. The merged-max
// floor inside MergePeerLists cannot see a floor held only as node state
// (a replica pruned to empty has no posts left to witness the epoch), so
// repair paths apply the exchanged floor explicitly on top.
func applyEpochFloor(pl PeerList, floor int64) PeerList {
	if floor <= 0 {
		return pl
	}
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
// full account, batching terms that share a responsible node into one
// RPC: term groups are read with hedged replica calls (HedgeDelay),
// quorum reads with read-repair when ReadQuorum ≥ 2, per-attempt
// timeouts capped by budget (≤ 0: uncapped), and every failed replica
// reported. With the read cache enabled, cached terms are served
// locally (no Winners entry — no replica was asked) and concurrent
// fetches of the same term coalesce onto one RPC; opt.Fresh bypasses the
// cache and refreshes it. The returned map is complete on nil error.
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
		if rep.Repaired > 0 {
			c.Metrics.Counter("directory.read_repairs").Add(int64(rep.Repaired))
		}
	}
	return out, rep, err
}

func (c *Client) fetchAllReport(terms []string, budget time.Duration) (map[string]PeerList, FetchReport, error) {
	rep := FetchReport{Winners: make(map[string]string, len(terms))}
	byAddr := make(map[string][]string)
	replicasByTerm := make(map[string][]chord.NodeRef, len(terms))
	for _, t := range terms {
		replicas, err := c.node.ReplicaSet(t, c.Replicas)
		if err != nil {
			return nil, rep, err
		}
		if len(replicas) == 0 {
			// No replica resolved (a degenerate ring view): report it as
			// unreachable rather than wrapping a nil error downstream.
			return nil, rep, fmt.Errorf("directory: fetch %q: %w", t, transport.ErrUnreachable)
		}
		replicasByTerm[t] = replicas
		byAddr[replicas[0].Addr] = append(byAddr[replicas[0].Addr], t)
	}
	owners := make([]string, 0, len(byAddr))
	for addr := range byAddr {
		owners = append(owners, addr)
	}
	sort.Strings(owners)
	out := make(map[string]PeerList, len(terms))
	for _, owner := range owners {
		group := byAddr[owner]
		if c.ReadQuorum > 1 {
			// Quorum reads compare replica copies per term and repair
			// divergence on the spot.
			for _, t := range group {
				pl, err := c.quorumFetch(t, replicasByTerm[t], budget, &rep)
				if err != nil {
					return nil, rep, fmt.Errorf("directory: fetch %q: %w", t, err)
				}
				out[t] = pl
			}
			continue
		}
		if c.HedgeDelay > 0 {
			// Hedged batch read: all terms of the group share the owner's
			// replica set (replicas are the owner's ring successors). The
			// owner is asked first; a replica is only raced in after the
			// hedge delay (or an owner failure), so under healthy latency
			// the authoritative copy still wins — a hedge winner with a
			// thinner copy is the accepted staleness tradeoff of tail
			// tolerance (quorum reads close that gap).
			replicas := replicasByTerm[group[0]]
			addrs := make([]string, len(replicas))
			for i, r := range replicas {
				addrs[i] = r.Addr
			}
			h := transport.Hedged{
				Caller:    transport.WithTimeout(c.node.Network(), c.Retry.Within(budget).Timeout),
				Delay:     c.HedgeDelay,
				Max:       len(addrs),
				Hedges:    c.Metrics.Counter("transport.hedges"),
				HedgeWins: c.Metrics.Counter("transport.hedge_wins"),
			}
			c.Metrics.Counter("directory.rpc." + methodGetBatch).Inc()
			var got map[string]PeerList
			winner, err := h.Invoke(addrs, methodGetBatch, group, &got)
			if err == nil {
				for t, pl := range got {
					out[t] = pl
					rep.Winners[t] = winner
				}
				continue
			}
			rep.addError(replicaError(owner, "get_batch", "", err))
		} else {
			// Sequential read: the owner's batch first, per-term replica
			// fail-over below when it fails.
			var got map[string]PeerList
			err := c.invoke(owner, methodGetBatch, group, &got, budget)
			if err == nil {
				for t, pl := range got {
					out[t] = pl
					rep.Winners[t] = owner
				}
				continue
			}
			rep.addError(replicaError(owner, "get_batch", "", err))
		}
		// The batch path failed; fall back to per-term reads across each
		// term's replicas for precise per-replica blame.
		for _, t := range group {
			pl, ferr := c.fetchEachReplica(t, replicasByTerm[t], budget, &rep)
			if ferr != nil {
				return nil, rep, fmt.Errorf("directory: fetch %q: %w", t, ferr)
			}
			out[t] = pl
		}
	}
	return out, rep, nil
}

// fetchEachReplica tries a term's replicas in order, recording each
// failure, and returns the first successful PeerList.
func (c *Client) fetchEachReplica(term string, replicas []chord.NodeRef, budget time.Duration, rep *FetchReport) (PeerList, error) {
	var lastErr error = transport.ErrUnreachable
	for _, r := range replicas {
		var pl PeerList
		if err := c.invoke(r.Addr, methodGet, term, &pl, budget); err != nil {
			rep.addError(replicaError(r.Addr, "get", term, err))
			lastErr = err
			continue
		}
		rep.Winners[term] = r.Addr
		return pl, nil
	}
	return nil, lastErr
}

// quorumFetch reads a term from up to ReadQuorum replicas, merges their
// copies, and read-repairs any replica whose copy diverges from the
// merge. The merged list is returned — a reader behind a stale replica
// still sees the freshest union.
func (c *Client) quorumFetch(term string, replicas []chord.NodeRef, budget time.Duration, rep *FetchReport) (PeerList, error) {
	quorum := c.ReadQuorum
	if quorum > len(replicas) {
		quorum = len(replicas)
	}
	type copyOf struct {
		addr string
		pl   PeerList
	}
	var copies []copyOf
	var floor int64
	var lastErr error = transport.ErrUnreachable
	for _, r := range replicas {
		var got getRepairResponse
		if err := c.invoke(r.Addr, methodGetRepair, term, &got, budget); err != nil {
			rep.addError(replicaError(r.Addr, "get", term, err))
			lastErr = err
			continue
		}
		copies = append(copies, copyOf{addr: r.Addr, pl: got.Posts})
		if got.Floor > floor {
			floor = got.Floor
		}
		if len(copies) >= quorum {
			break
		}
	}
	if len(copies) == 0 {
		return nil, lastErr
	}
	rep.Winners[term] = copies[0].addr
	lists := make([]PeerList, len(copies))
	for i, cp := range copies {
		lists[i] = cp.pl
	}
	// A quorum read witnesses the replicas' prune floors — propagate to
	// the read cache before the merged result is stored.
	c.ObserveFloor(floor)
	merged := applyEpochFloor(MergePeerLists(lists), floor)
	want := DigestPosts(merged)
	for _, cp := range copies {
		if DigestPosts(cp.pl) == want {
			continue
		}
		c.Metrics.Counter("directory.replica_divergence").Inc()
		if err := c.invoke(cp.addr, methodRepair, repairRequest{Term: term, Posts: merged, Floor: floor}, nil, budget); err != nil {
			rep.addError(replicaError(cp.addr, "repair", term, err))
			continue
		}
		rep.Repaired++
	}
	return merged, nil
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
		var d digestResponse
		if err := c.invoke(r.Addr, methodDigest, term, &d, 0); err != nil {
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
		var pl PeerList
		if err := c.invoke(s.addr, methodGet, term, &pl, 0); err != nil {
			continue
		}
		lists = append(lists, pl)
		byAddr[s.addr] = pl
	}
	merged := applyEpochFloor(MergePeerLists(lists), floor)
	want := DigestPosts(merged)
	for _, s := range live {
		pl, ok := byAddr[s.addr]
		if !ok || DigestPosts(pl) == want {
			continue
		}
		if err := c.invoke(s.addr, methodRepair, repairRequest{Term: term, Posts: merged, Floor: floor}, nil, 0); err != nil {
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
