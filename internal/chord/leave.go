package chord

import "sort"

// This file implements graceful membership changes: a departing node
// announces its leave to its neighbours so the ring closes over the gap
// in one round (instead of waiting for failure detection to declare it
// dead), and a large in-process ring can be warm-started from a full
// membership snapshot with zero RPCs.

// leaveNotice is the wire form of the chord.leave RPC: the departing
// node's identity plus the state its neighbours need to splice the ring
// — its predecessor (adopted by the successor) and its successor list
// (spliced in by the predecessor).
type leaveNotice struct {
	Departing NodeRef
	Pred      NodeRef
	Succs     []NodeRef
}

// Leave runs the graceful-departure protocol: the first live successor
// is told to adopt our predecessor, and the predecessor is told to
// splice our successor list in place of us. Both notifications are
// best-effort — a dead neighbour is simply skipped, and the ring heals
// through stabilization exactly as it would after a crash. Leave does
// not stop the node's server; call Close afterwards (directory handoff
// happens between the two, while the node still serves).
func (n *Node) Leave() {
	n.mu.RLock()
	pred := n.pred
	succs := append([]NodeRef(nil), n.succs...)
	n.mu.RUnlock()
	n.metrics.leaves.Inc()
	notice := leaveNotice{Departing: n.self, Pred: pred, Succs: succs}
	for _, s := range succs {
		if s.IsZero() || s.Addr == n.self.Addr {
			continue
		}
		if _, _, err := leaveRPC.Call(n.rpc(), s.Addr, notice, oneShot); err == nil {
			break
		}
		n.metrics.pingFailures.Inc()
	}
	if !pred.IsZero() && pred.Addr != n.self.Addr {
		_, _, _ = leaveRPC.Call(n.rpc(), pred.Addr, notice, oneShot)
	}
}

// handleLeave applies a neighbour's departure announcement: the
// departing node is dropped from the predecessor slot and the successor
// list, with its own successors spliced in so the list stays deep
// enough to tolerate further failures. Fingers pointing at the corpse
// are cleared (FixFinger repopulates them; lookups tolerate the gap).
func (n *Node) handleLeave(ln leaveNotice) {
	if ln.Departing.IsZero() || ln.Departing.Addr == n.self.Addr {
		return
	}
	n.metrics.leaveNotices.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.Addr == ln.Departing.Addr {
		if !ln.Pred.IsZero() && ln.Pred.Addr != n.self.Addr {
			n.pred = ln.Pred
		} else {
			n.pred = NodeRef{}
		}
	}
	n.spliceSuccessorsLocked(ln.Departing, ln.Succs)
	for i, f := range n.fingers {
		if f.Addr == ln.Departing.Addr {
			n.fingers[i] = n.succs[0]
		}
	}
}

// spliceSuccessorsLocked rebuilds the successor list without drop,
// merging extra candidates (the departing node's own list) and keeping
// ring order by distance from self. Caller holds n.mu.
func (n *Node) spliceSuccessorsLocked(drop NodeRef, extra []NodeRef) {
	seen := make(map[string]struct{}, len(n.succs)+len(extra))
	var cand []NodeRef
	add := func(s NodeRef) {
		if s.IsZero() || s.Addr == drop.Addr || s.Addr == n.self.Addr {
			return
		}
		if _, dup := seen[s.Addr]; dup {
			return
		}
		seen[s.Addr] = struct{}{}
		cand = append(cand, s)
	}
	for _, s := range n.succs {
		add(s)
	}
	for _, s := range extra {
		add(s)
	}
	sort.Slice(cand, func(i, j int) bool {
		return uint64(cand[i].ID-n.self.ID) < uint64(cand[j].ID-n.self.ID)
	})
	if len(cand) > n.cfg.successors() {
		cand = cand[:n.cfg.successors()]
	}
	if len(cand) == 0 {
		cand = []NodeRef{n.self}
	}
	n.succs = cand
}

// Bootstrap warm-starts the node's ring state from a full membership
// snapshot: predecessor, successor list, and the whole finger table are
// computed locally with zero RPCs. Every in-process harness ring boots
// through it, whatever its size: the state equals what join-and-stabilize
// converges to (TestJoinConvergesToBootstrap) without the O(n²)
// stabilization RPCs. Live joins and leaves afterwards go through the
// normal protocol. The snapshot must contain this node; order does not
// matter (it is sorted by ring ID internally).
func (n *Node) Bootstrap(ring []NodeRef) {
	if len(ring) == 0 {
		return
	}
	sorted := append([]NodeRef(nil), ring...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	at := -1
	for i, r := range sorted {
		if r.Addr == n.self.Addr {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	m := len(sorted)
	// succAt returns the first node whose ID ≥ id, wrapping past the top.
	succAt := func(id ID) NodeRef {
		i := sort.Search(m, func(i int) bool { return sorted[i].ID >= id })
		if i == m {
			i = 0
		}
		return sorted[i]
	}
	depth := n.cfg.successors()
	if depth > m-1 {
		depth = m - 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if m == 1 {
		n.pred = NodeRef{}
		n.succs = []NodeRef{n.self}
		for i := range n.fingers {
			n.fingers[i] = n.self
		}
		return
	}
	n.pred = sorted[(at-1+m)%m]
	succs := make([]NodeRef, 0, depth)
	for j := 1; j <= depth; j++ {
		succs = append(succs, sorted[(at+j)%m])
	}
	n.succs = succs
	for i := range n.fingers {
		n.fingers[i] = succAt(fingerStart(n.self.ID, i))
	}
}

// PredecessorOf fetches another node's current predecessor (locally for
// this node's own reference). A joining node uses it to learn the lower
// bound of the key range it is about to own — its successor's current
// predecessor — before it becomes visible to the ring.
func (n *Node) PredecessorOf(ref NodeRef) (NodeRef, error) {
	if ref.Addr == n.self.Addr {
		return n.Predecessor(), nil
	}
	pred, _, err := getPredecessorRPC.Call(n.rpc(), ref.Addr, none, oneShot)
	if err != nil {
		return NodeRef{}, err
	}
	return pred, nil
}
