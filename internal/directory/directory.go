// Package directory implements MINERVA's conceptually-global, physically-
// distributed directory (paper Section 4): a term-partitioned registry of
// per-peer statistical metadata, layered on the Chord DHT.
//
// Every peer publishes, for every term in its local index, a Post holding
// IR statistics (index-list length, max/avg score, term-space size) plus
// the term's compact set synopsis (and optionally the Section 7.1 score
// histogram). The node that hash(term) maps to maintains the PeerList of
// all posts for that term; PeerLists are replicated over the owner's
// successors for availability. A query initiator fetches the PeerLists of
// its query terms and hands them to the IQN router — the only remote
// interaction routing needs.
package directory

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"iqn/internal/chord"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// MethodPost is the publish RPC every directory node serves — exported
// so fault-injection harnesses can scope rules to directory publishing
// (e.g. "every republish from this peer fails").
const MethodPost = "dir.post"

// MethodGet is the PeerList read RPC: a list of terms in, each term's
// PeerList out. Exported so fault-injection harnesses can scope latency
// or loss to the directory read path (e.g. "this node serves reads 10×
// slower").
const MethodGet = "dir.get"

// RPC method names served by the directory service of every node.
const (
	methodPost  = MethodPost
	methodGet   = MethodGet
	methodPrune = "dir.prune"
)

// HistCell is the wire form of one score-histogram cell (Section 7.1).
type HistCell struct {
	// Lo and Hi bound the cell's score range.
	Lo, Hi float64
	// Count is the number of documents in the cell.
	Count int
	// Synopsis is the marshaled set synopsis of the cell's docIDs.
	Synopsis []byte
}

// Post is one peer's publication for one term — the directory's unit of
// storage. All statistics refer to the posting peer's local index.
type Post struct {
	// Peer is the posting peer's name; PeerAddr its transport address
	// for query forwarding.
	Peer     string
	PeerAddr string
	// Term is the index term the post describes.
	Term string
	// ListLength is the length of the peer's inverted list for the term
	// (its cdf, and the |S_B| of novelty estimation).
	ListLength int
	// MaxScore and AvgScore summarize the list's score distribution.
	MaxScore, AvgScore float64
	// TermSpaceSize is |V_i|, the peer's total distinct-term count.
	TermSpaceSize int
	// NumDocs is the peer's collection size.
	NumDocs int
	// Synopsis is the marshaled per-term set synopsis.
	Synopsis []byte
	// Histogram optionally carries the score-histogram cells.
	Histogram []HistCell
	// Epoch is the publisher's logical publication round. Directory
	// maintenance prunes posts below a minimum epoch, which is how stale
	// posts of crashed peers age out: live peers republish every round,
	// dead ones stop (Section 7.2's "peers post frequent updates").
	Epoch int64
}

// PeerList is every peer's post for one term, the directory's answer to
// a lookup: strictly ascending by peer name, one post per peer.
type PeerList []Post

// getReply is the wire form of the dir.get reply: each requested term's
// PeerList, plus the serving node's predecessor ID (0 when the node does
// not know its predecessor). The server thereby states the ring interval
// (PredID, self] it owns, which is what the reader's owner view learns
// and every reply is checked against.
type getReply struct {
	PredID chord.ID
	Lists  map[string]PeerList
}

// Service stores the directory fraction a node is responsible for and
// serves the directory RPCs. Create with NewService; it registers its
// handlers on the node's mux.
type Service struct {
	node *chord.Node

	mu sync.RWMutex
	// data holds each term's PeerList as reads serve it, so a read copies
	// and never sorts. Every write keeps it so: store and ReplaceTerm drop
	// posts below floor, and Prune sweeps as it raises floor.
	data  map[string]PeerList
	floor int64 // highest Prune minEpoch seen (posts below are dead)

	// invalidate, when set (SetInvalidation), is called after every local
	// mutation with each affected term and the node's current prune floor
	// — the hook a colocated read cache uses to stay coherent with writes
	// that arrive over RPC (republish, prune, anti-entropy repair).
	invalidate func(term string, floor int64)
}

// SetInvalidation installs the mutation hook: fn is called (outside the
// service lock) with each term touched by a store, prune, floor raise,
// or repair replacement, plus the node's prune floor at mutation time.
// A floor-only change calls fn("", floor). Pass nil to remove the hook.
func (s *Service) SetInvalidation(fn func(term string, floor int64)) {
	s.mu.Lock()
	s.invalidate = fn
	s.mu.Unlock()
}

// fireInvalidate runs the invalidation hook for a set of terms; called
// after the mutating lock is released.
func (s *Service) fireInvalidate(terms []string, floor int64) {
	s.mu.RLock()
	fn := s.invalidate
	s.mu.RUnlock()
	if fn == nil {
		return
	}
	if len(terms) == 0 {
		fn("", floor)
		return
	}
	for _, t := range terms {
		fn(t, floor)
	}
}

// NewService attaches a directory service to a Chord node.
func NewService(node *chord.Node) *Service {
	s := &Service{node: node, data: make(map[string]PeerList)}
	mux := node.Mux()
	postRPC.Handle(mux, func(posts []Post) (int, error) { return s.store(posts), nil })
	getRPC.Handle(mux, func(terms []string) (getReply, error) {
		out := make(map[string]PeerList, len(terms))
		for _, t := range terms {
			out[t] = s.Lookup(t)
		}
		return getReply{PredID: node.Predecessor().ID, Lists: out}, nil
	})
	pruneRPC.Handle(mux, func(minEpoch int64) (int, error) { return s.Prune(minEpoch), nil })
	s.registerHandoff()
	s.registerRepair()
	return s
}

// Prune raises the node's prune floor to minEpoch and drops every
// stored post below it, returning how many were dropped; a minEpoch at
// or below the floor changes nothing and returns 0. Terms left without
// posts disappear entirely. The floor (see Floor) outlives the sweep:
// later writes below it are dropped too, so neither a late publish nor
// anti-entropy repair from a replica that missed the prune can bring a
// pruned post back.
func (s *Service) Prune(minEpoch int64) int {
	s.mu.Lock()
	if minEpoch <= s.floor {
		s.mu.Unlock()
		return 0
	}
	s.floor = minEpoch
	dropped := 0
	var touched []string
	for term, pl := range s.data {
		kept := applyEpochFloor(pl, minEpoch)
		if len(kept) == len(pl) {
			continue
		}
		dropped += len(pl) - len(kept)
		touched = append(touched, term)
		clear(pl[len(kept):])
		if len(kept) == 0 {
			delete(s.data, term)
		} else {
			s.data[term] = kept
		}
	}
	s.mu.Unlock()
	s.fireInvalidate(touched, minEpoch)
	return dropped
}

// store upserts posts into the local fraction, one post per (term,
// peer), and returns how many it stored: a post below the prune floor
// is dead and dropped.
func (s *Service) store(posts []Post) int {
	s.mu.Lock()
	stored := 0
	var touched []string
	seen := make(map[string]struct{}, len(posts))
	for _, p := range posts {
		if p.Epoch < s.floor {
			continue
		}
		pl, ok := s.data[p.Term]
		switch i := peerSlot(pl, p.Peer); {
		case i < len(pl) && pl[i].Peer == p.Peer:
			pl[i] = p
		case ok:
			s.data[p.Term] = slices.Insert(pl, i, p)
		default:
			// The key outlives the post: its own copy keeps it from
			// pinning the decoded request's string section.
			s.data[strings.Clone(p.Term)] = PeerList{p}
		}
		stored++
		if _, dup := seen[p.Term]; !dup {
			seen[p.Term] = struct{}{}
			touched = append(touched, p.Term)
		}
	}
	floor := s.floor
	s.mu.Unlock()
	s.fireInvalidate(touched, floor)
	return stored
}

// peerSlot returns the index of peer's post in a peer-sorted list, or
// the index it would be inserted at. The index-based search never
// copies a Post, as a comparator taking Post values would.
func peerSlot(pl PeerList, peer string) int {
	return sort.Search(len(pl), func(i int) bool { return pl[i].Peer >= peer })
}

// Floor returns the node's prune floor: the highest minEpoch any Prune
// call used (0 before the first prune). Posts below the floor are dead
// by the maintenance discipline; repair exchanges carry the floor so a
// stale replica that slept through the prune converges to the pruned
// state instead of resurrecting old posts.
func (s *Service) Floor() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.floor
}

// TermCount returns how many terms this node currently stores posts for
// (diagnostics).
func (s *Service) TermCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Client publishes to and queries the distributed directory on behalf of
// one peer. It batches posts per responsible node, batches reads per
// owner, and fails over to replicas on reads.
type Client struct {
	node *chord.Node
	// Replicas is the replication factor for published posts (owner +
	// Replicas−1 successors). Minimum 1.
	Replicas int
	// Retry is the retry/backoff policy for directory RPCs (posting,
	// PeerList fetches). The zero value makes a single attempt with no
	// timeout; replica fail-over still applies either way — retry
	// handles transient faults on a live node, fail-over handles dead
	// nodes.
	Retry transport.RetryPolicy
	// HedgeDelay enables hedged PeerList reads: when the replica asked
	// last has not answered within this delay, the next replica is
	// started beside it and the first success wins — one slow replica
	// costs HedgeDelay, not its full latency. Zero disables hedging
	// (in-order fail-over only).
	HedgeDelay time.Duration
	// Metrics, when set, counts directory activity: directory.fetches,
	// the directory.fetch_ms latency histogram, directory.fetch_errors
	// (failed replica calls), directory.anti_entropy_repairs, plus
	// transport.retries, transport.hedges and transport.hedge_wins spent
	// on directory RPCs. Every RPC the client issues also bumps a
	// per-method directory.rpc.<method> counter, and the read cache (when
	// enabled) counts directory.cache_hits / cache_misses /
	// cache_negative_hits / cache_stale_evictions / cache_coalesced_waits
	// / cache_invalidations / cache_synopsis_decodes /
	// cache_synopsis_reuse. Nil leaves the client uncounted.
	Metrics *telemetry.Registry

	// cache, when armed via EnableCache, serves repeated-term reads
	// locally with bounded staleness (≤ TTL) and epoch validation.
	cache *readCache

	// view names the owner of every ring interval a dir.get reply has
	// confirmed, so a read of a term in a known interval skips the
	// Chord lookup (view.go).
	view ownerView
}

// NewClient returns a directory client working through the given node.
func NewClient(node *chord.Node, replicas int) *Client {
	if replicas < 1 {
		replicas = 1
	}
	return &Client{node: node, Replicas: replicas}
}

// Publish posts a batch of per-term publications: posts are grouped by
// responsible node (so peers "batch multiple posts directed to the same
// recipient", Section 7.2) and each group is written to the owner and its
// replicas. The report accounts for every replica write group: a group
// counts as written only when its owner stored every post it was sent,
// so posts an owner dropped below its prune floor surface as a
// ReplicaError. The error is non-nil when a term cannot be resolved or
// when every group failed (no replica stored its whole batch).
func (c *Client) Publish(posts []Post) (PublishReport, error) {
	var rep PublishReport
	addrs, groups, err := groupByReplica(c, posts, func(p Post) string { return p.Term }, c.Replicas, "")
	if err != nil {
		return rep, err
	}
	rep.Groups = len(addrs)
	for _, addr := range addrs {
		stored, err := invoke(c, postRPC, addr, groups[addr], 0)
		if err == nil && stored < len(groups[addr]) {
			// The owner dropped posts below its prune floor.
			err = fmt.Errorf("stored %d of %d posts", stored, len(groups[addr]))
		}
		if err != nil {
			rep.Errors = append(rep.Errors, replicaError(addr, "post", "", err))
			continue
		}
		rep.Written++
	}
	// The publish may have changed any of these terms remotely — drop the
	// cached copies (even on partial failure: some replica may have
	// accepted the write).
	for _, p := range posts {
		c.InvalidateCachedTerm(p.Term)
	}
	if rep.Written == 0 && rep.Groups > 0 {
		return rep, fmt.Errorf("directory: all %d post targets failed (first: %s: %s)",
			rep.Groups, rep.Errors[0].Addr, rep.Errors[0].Err)
	}
	return rep, nil
}

// groupByReplica resolves the count-node replica set of every item's
// term and groups the items by replica address, addresses sorted. Batches
// of more than ringSnapshotMin items resolve against one ring snapshot
// (one successor walk) instead of one DHT lookup per term; per-term
// lookups remain the fallback when the walk fails. skip names an address
// left out of every set (a departing node; "" keeps all). err reports
// the first term that could not be resolved: its items are left out, and
// the caller decides whether that fails the whole operation.
func groupByReplica[T any](c *Client, items []T, term func(T) string, count int, skip string) (addrs []string, groups map[string][]T, err error) {
	var ring []chord.NodeRef
	if len(items) > ringSnapshotMin {
		ring = c.ringSnapshot()
	}
	groups = make(map[string][]T)
	for _, it := range items {
		t := term(it)
		var replicas []chord.NodeRef
		if ring != nil {
			replicas = replicasFromRing(ring, chord.HashKey(t), count)
		} else {
			var rerr error
			if replicas, rerr = c.node.ReplicaSet(t, count); rerr != nil {
				if err == nil {
					err = fmt.Errorf("directory: resolve %q: %w", t, rerr)
				}
				continue
			}
		}
		for _, r := range replicas {
			if r.Addr != skip {
				groups[r.Addr] = append(groups[r.Addr], it)
			}
		}
	}
	addrs = make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs, groups, err
}

// ringSnapshotMin is the batch size above which groupByReplica resolves
// replica sets against one ring walk rather than per-term lookups.
const ringSnapshotMin = 16

// PruneBelow asks every reachable directory node to drop posts older
// than minEpoch. It walks the ring once; unreachable nodes are skipped
// (they will prune when they republish or their data dies with them).
// Returns the total number of posts dropped on reachable nodes.
func (c *Client) PruneBelow(minEpoch int64) int {
	ring := c.ringSnapshot()
	if ring == nil {
		ring = []chord.NodeRef{c.node.Self()}
	}
	total := 0
	for _, node := range ring {
		if n, err := invoke(c, pruneRPC, node.Addr, minEpoch, 0); err == nil {
			total += n
		}
	}
	// The client itself witnessed the prune: evict cached entries that
	// hold posts below the new floor.
	c.ObserveFloor(minEpoch)
	return total
}

// ringSnapshot walks the successor chain from the client's own node and
// returns the full ring sorted by ID, or nil when the walk fails or does
// not close (the caller then falls back to per-term lookups). The walk is
// O(ring size) RPCs, amortized over an arbitrarily large post batch.
func (c *Client) ringSnapshot() []chord.NodeRef {
	self := c.node.Self()
	ring := []chord.NodeRef{self}
	seen := map[string]struct{}{self.Addr: {}}
	cur := c.node.Successor()
	for len(ring) < chord.MaxRing {
		if cur.IsZero() {
			return nil
		}
		if cur.Addr == self.Addr {
			sort.Slice(ring, func(i, j int) bool { return ring[i].ID < ring[j].ID })
			return ring
		}
		if _, dup := seen[cur.Addr]; dup {
			return nil // walk cycled without closing: ring unstable
		}
		seen[cur.Addr] = struct{}{}
		ring = append(ring, cur)
		succs, err := c.node.SuccessorsOf(cur)
		if err != nil || len(succs) == 0 {
			return nil
		}
		cur = succs[0]
	}
	return nil
}

// replicasFromRing resolves the owner (first node with ID ≥ key, wrapping
// to the smallest) and its count−1 ring successors from a snapshot.
func replicasFromRing(ring []chord.NodeRef, key chord.ID, count int) []chord.NodeRef {
	i := sort.Search(len(ring), func(i int) bool { return ring[i].ID >= key })
	if i == len(ring) {
		i = 0
	}
	if count > len(ring) {
		count = len(ring)
	}
	out := make([]chord.NodeRef, 0, count)
	for j := 0; j < count; j++ {
		out = append(out, ring[(i+j)%len(ring)])
	}
	return out
}
