package chord

import (
	"iqn/internal/transport"
)

// This file implements Chord's ring-maintenance protocol: stabilize,
// notify, fix-fingers, and successor-list refresh. The background loop
// (Node.Start) runs these periodically; tests drive them deterministically
// by calling StabilizeAll-style rounds directly.

// Stabilize runs one round of the stabilization protocol:
//
//  1. skip dead successors (fail-over to the successor list),
//  2. ask the live successor for its predecessor x; if x lies between us
//     and the successor, adopt x as the new successor,
//  3. notify the successor of our existence,
//  4. refresh the successor list from the successor's list.
//
// Stabilize is also how a freshly-joined node becomes visible: its
// notify call teaches the successor about it, and the predecessor's next
// stabilization discovers it in turn.
//
// The round tolerates a successor dying mid-round: when the chosen
// successor stops answering between the liveness probe and the notify,
// it is evicted from the list and the round fails over to the next
// entry instead of wedging until the next tick — under churn a peer can
// lose several consecutive successors inside one stabilization period.
func (n *Node) Stabilize() {
	n.metrics.stabilizeRounds.Inc()
	for attempt := 0; attempt < n.cfg.successors(); attempt++ {
		succ := n.liveSuccessor()
		if succ.IsZero() {
			// Every known successor is dead; collapse to a self-ring so the
			// node stays usable and can be re-joined.
			n.mu.Lock()
			n.succs = []NodeRef{n.self}
			n.mu.Unlock()
			return
		}
		if n.stabilizeWith(succ) {
			n.checkPredecessor()
			return
		}
		// succ died between the liveness probe and the round's RPCs:
		// evict it and fail over to the next successor-list entry.
		n.metrics.succFailovers.Inc()
		n.mu.Lock()
		n.spliceSuccessorsLocked(succ, nil)
		n.mu.Unlock()
	}
	n.checkPredecessor()
}

// stabilizeWith runs the adopt/notify/refresh steps against one chosen
// successor. It returns false only when the successor stopped answering
// mid-round (the caller evicts it and retries); application-level
// oddities are absorbed as before.
func (n *Node) stabilizeWith(succ NodeRef) bool {
	if succ.Addr != n.self.Addr {
		if pred, _, err := getPredecessorRPC.Call(n.rpc(), succ.Addr, none, oneShot); err == nil &&
			!pred.IsZero() && between(n.self.ID, pred.ID, succ.ID) {
			// A node slipped in between: verify it's alive before
			// adopting it.
			if n.ping(pred) {
				succ = pred
			}
		}
		n.metrics.notifies.Inc()
		if _, _, err := notifyRPC.Call(n.rpc(), succ.Addr, n.self, oneShot); err != nil && transport.Retryable(err) {
			// The notify bounced after the liveness probe passed: on a
			// lossy link that is a dropped packet, under churn a death.
			// Only a double-ping failure (the same discipline as
			// liveSuccessor) declares the successor dead mid-round.
			if !n.ping(succ) && !n.ping(succ) {
				return false
			}
		}
	} else if pred := n.Predecessor(); !pred.IsZero() && pred.Addr != n.self.Addr {
		// Self-successor but a predecessor is known (e.g. we were the
		// seed of a two-node ring): the predecessor is our successor on
		// a two-node ring.
		if n.ping(pred) {
			succ = pred
			n.metrics.notifies.Inc()
			_, _, _ = notifyRPC.Call(n.rpc(), succ.Addr, n.self, oneShot)
		}
	}
	n.refreshSuccessors(succ)
	return true
}

// liveSuccessor returns the first responsive entry of the successor
// list, shifting dead ones off. A node is only declared dead after two
// failed pings: on lossy networks a single dropped probe must not evict
// a live successor — skipping one can wedge the ring into disjoint
// stable cycles that stabilization cannot merge.
func (n *Node) liveSuccessor() NodeRef {
	n.mu.RLock()
	succs := append([]NodeRef(nil), n.succs...)
	n.mu.RUnlock()
	for _, s := range succs {
		if s.Addr == n.self.Addr || n.ping(s) || n.ping(s) {
			return s
		}
	}
	return NodeRef{}
}

// refreshSuccessors rebuilds the successor list as succ followed by
// succ's own list, truncated to the configured length.
func (n *Node) refreshSuccessors(succ NodeRef) {
	list := []NodeRef{succ}
	if succ.Addr != n.self.Addr {
		if remote, _, err := successorsRPC.Call(n.rpc(), succ.Addr, none, oneShot); err == nil {
			for _, s := range remote {
				if s.Addr == n.self.Addr || s.IsZero() {
					continue
				}
				list = append(list, s)
				if len(list) >= n.cfg.successors() {
					break
				}
			}
		}
	}
	n.mu.Lock()
	n.succs = list
	n.mu.Unlock()
}

// checkPredecessor clears a dead predecessor so a live candidate can
// claim the slot at the next notify.
func (n *Node) checkPredecessor() {
	pred := n.Predecessor()
	if pred.IsZero() || pred.Addr == n.self.Addr {
		return
	}
	if !n.ping(pred) {
		n.mu.Lock()
		if n.pred.Addr == pred.Addr {
			n.pred = NodeRef{}
		}
		n.mu.Unlock()
	}
}

// notify handles a peer's claim to be our predecessor.
func (n *Node) notify(cand NodeRef) {
	if cand.IsZero() || cand.Addr == n.self.Addr {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() || between(n.pred.ID, cand.ID, n.self.ID) {
		n.pred = cand
	}
}

// FixFinger recomputes the i-th finger-table entry (i in [0, M)) by
// looking up the successor of self + 2^i.
func (n *Node) FixFinger(i int) {
	if i < 0 || i >= M {
		return
	}
	ref, err := n.FindSuccessor(fingerStart(n.self.ID, i))
	if err != nil {
		return
	}
	n.mu.Lock()
	n.fingers[i] = ref
	n.mu.Unlock()
}

// FixAllFingers recomputes the whole finger table (test/benchmark
// convenience; the background loop fixes one finger per tick).
func (n *Node) FixAllFingers() {
	for i := 0; i < M; i++ {
		n.FixFinger(i)
	}
}

// ping reports whether a node answers its ping RPC.
func (n *Node) ping(ref NodeRef) bool {
	if ok, _, err := pingRPC.Call(n.rpc(), ref.Addr, none, oneShot); err == nil && ok {
		return true
	}
	n.metrics.pingFailures.Inc()
	return false
}
