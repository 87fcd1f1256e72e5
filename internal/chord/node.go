package chord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// RPC method names served by every Chord node.
const (
	methodFindSuccessor    = "chord.find_successor"
	methodClosestPreceding = "chord.closest_preceding"
	methodGetPredecessor   = "chord.get_predecessor"
	methodNotify           = "chord.notify"
	methodSuccessors       = "chord.successors"
	methodPing             = "chord.ping"
	methodLeave            = "chord.leave"
)

// ErrNotFound reports a lookup that could not complete (no live route).
var ErrNotFound = errors.New("chord: lookup failed")

// defaultSuccessors is the successor-list length r: the ring tolerates up
// to r−1 consecutive node failures.
const defaultSuccessors = 4

// maxHops bounds a lookup walk; log2(n) fingers make real walks far
// shorter, so hitting the bound indicates a broken ring.
const maxHops = 128

// Config tunes a node.
type Config struct {
	// Successors is the successor-list length (default 4).
	Successors int
	// StabilizeInterval is the period of the background maintenance loop
	// started by Start (default 50ms). Tests that drive maintenance
	// manually never call Start.
	StabilizeInterval time.Duration
	// Metrics, non-nil, counts ring maintenance: chord.stabilize.rounds,
	// chord.stabilize.notifies, chord.stabilize.ping_failures,
	// chord.stabilize.successor_failovers (a successor died mid-round and
	// the round failed over to the next list entry), chord.lookup.restarts
	// (a lookup walked into a corpse and restarted from self), and
	// chord.leaves / chord.leave_notices (graceful departures sent /
	// received). Nil disarms all counting at zero cost.
	Metrics *telemetry.Registry
}

func (c Config) successors() int {
	if c.Successors <= 0 {
		return defaultSuccessors
	}
	return c.Successors
}

// Node is a Chord ring member. Create it with New, then either Create
// (first node of a ring) or Join (subsequent nodes), then — outside unit
// tests — Start the maintenance loop. Close deregisters the node.
//
// The node registers its RPC methods on its own Mux; other subsystems of
// the same peer (directory, query execution) add their methods to the
// same Mux, so a peer is one address serving several protocols.
type Node struct {
	self NodeRef
	cfg  Config
	net  transport.Network
	mux  *transport.Mux

	mu      sync.RWMutex
	caller  transport.Caller // outgoing-call path; nil = net directly
	pred    NodeRef
	succs   []NodeRef // successor list, succs[0] is THE successor
	fingers [M]NodeRef

	metrics nodeMetrics

	stopServe func()
	loopStop  chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
}

// nodeMetrics pre-resolves the maintenance counters once (all methods
// are no-ops on the nil instruments a nil registry hands out).
type nodeMetrics struct {
	stabilizeRounds *telemetry.Counter
	notifies        *telemetry.Counter
	pingFailures    *telemetry.Counter
	succFailovers   *telemetry.Counter
	lookupRestarts  *telemetry.Counter
	leaves          *telemetry.Counter
	leaveNotices    *telemetry.Counter
}

func newNodeMetrics(r *telemetry.Registry) nodeMetrics {
	return nodeMetrics{
		stabilizeRounds: r.Counter("chord.stabilize.rounds"),
		notifies:        r.Counter("chord.stabilize.notifies"),
		pingFailures:    r.Counter("chord.stabilize.ping_failures"),
		succFailovers:   r.Counter("chord.stabilize.successor_failovers"),
		lookupRestarts:  r.Counter("chord.lookup.restarts"),
		leaves:          r.Counter("chord.leaves"),
		leaveNotices:    r.Counter("chord.leave_notices"),
	}
}

// New creates a node for addr on the network, registers its RPC handlers,
// and starts serving. The node initially forms a ring of itself; call
// Join to enter an existing ring.
func New(addr string, net transport.Network, cfg Config) (*Node, error) {
	n := &Node{
		self:    NodeRef{ID: HashAddr(addr), Addr: addr},
		cfg:     cfg,
		net:     net,
		mux:     transport.NewMux(),
		metrics: newNodeMetrics(cfg.Metrics),
	}
	n.succs = []NodeRef{n.self}
	for i := range n.fingers {
		n.fingers[i] = n.self
	}
	n.registerHandlers()
	stop, err := net.Register(addr, n.mux)
	if err != nil {
		return nil, err
	}
	n.stopServe = stop
	return n, nil
}

// Self returns the node's own reference.
func (n *Node) Self() NodeRef { return n.self }

// Mux exposes the node's method multiplexer so co-located services
// (directory, search) can register their RPCs on the same address.
func (n *Node) Mux() *transport.Mux { return n.mux }

// Network returns the transport the node communicates over.
func (n *Node) Network() transport.Network { return n.net }

// SetCaller routes the node's outgoing RPCs (stabilization pings,
// notifies, successor queries, lookups) through an alternative caller —
// typically a circuit-breaker wrapper over the same network — so ring
// maintenance respects the same per-link overload discipline as query
// traffic. Call at setup time, before the node originates traffic; nil
// restores the raw network.
func (n *Node) SetCaller(c transport.Caller) {
	n.mu.Lock()
	n.caller = c
	n.mu.Unlock()
}

// rpc returns the node's current outgoing-call path.
func (n *Node) rpc() transport.Caller {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.caller != nil {
		return n.caller
	}
	return n.net
}

// Successor returns the current immediate successor.
func (n *Node) Successor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.succs[0]
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]NodeRef(nil), n.succs...)
}

// Close stops the maintenance loop (if running) and deregisters the node
// from the network. Safe to call more than once.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		if n.loopStop != nil {
			close(n.loopStop)
			<-n.loopDone
		}
		if n.stopServe != nil {
			n.stopServe()
		}
	})
}

// Create (re)initializes the node as the sole member of a new ring.
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pred = NodeRef{}
	n.succs = []NodeRef{n.self}
	for i := range n.fingers {
		n.fingers[i] = n.self
	}
}

// Join enters the ring that seedAddr belongs to by asking it for the
// successor of this node's ID (Chord's join protocol; the rest of the
// state converges through stabilization).
func (n *Node) Join(seedAddr string) error {
	succ, _, err := findSuccessorRPC.Call(n.rpc(), seedAddr, n.self.ID, oneShot)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", seedAddr, err)
	}
	if succ.IsZero() {
		return fmt.Errorf("chord: join via %s: empty successor", seedAddr)
	}
	n.mu.Lock()
	n.pred = NodeRef{}
	n.succs = []NodeRef{succ}
	n.mu.Unlock()
	return nil
}

// Start launches the background maintenance loop: stabilize, fix one
// finger, and refresh the successor list every interval.
func (n *Node) Start() {
	if n.loopStop != nil {
		return
	}
	interval := n.cfg.StabilizeInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	n.loopStop = make(chan struct{})
	n.loopDone = make(chan struct{})
	go func() {
		defer close(n.loopDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		next := 0
		for {
			select {
			case <-n.loopStop:
				return
			case <-ticker.C:
				n.Stabilize()
				n.FixFinger(next)
				next = (next + 1) % M
			}
		}
	}()
}

// registerHandlers wires the Chord RPCs into the node's mux.
func (n *Node) registerHandlers() {
	findSuccessorRPC.Handle(n.mux, n.FindSuccessor)
	closestPrecedingRPC.Handle(n.mux, func(id ID) (NodeRef, error) {
		return n.closestPreceding(id), nil
	})
	getPredecessorRPC.Handle(n.mux, func(struct{}) (NodeRef, error) {
		return n.Predecessor(), nil
	})
	notifyRPC.Handle(n.mux, func(cand NodeRef) (bool, error) {
		n.notify(cand)
		return true, nil
	})
	successorsRPC.Handle(n.mux, func(struct{}) ([]NodeRef, error) {
		return n.SuccessorList(), nil
	})
	pingRPC.Handle(n.mux, func(struct{}) (bool, error) { return true, nil })
	leaveRPC.Handle(n.mux, func(ln leaveNotice) (bool, error) {
		n.handleLeave(ln)
		return true, nil
	})
}

// FindSuccessor resolves the node responsible for id: the first node
// whose ID equals or follows id on the ring. The lookup is iterative,
// driven entirely by this node: hop along closest-preceding fingers
// (fetched by RPC from each intermediate node) until the owner is
// bracketed between a node and its successor.
//
// The walk is fault-tolerant: nodes that fail mid-walk are remembered in
// an avoid set and the walk restarts from this node, routing around the
// corpse (remote finger tables may still reference it before their
// owners re-stabilize). A node that fast-rejects a hop with
// transport.ErrOverloaded is alive, only busy: the hop is retried once
// before the node is avoided. In the degenerate worst case the walk
// degrades to a successor-by-successor traversal, which is slow but
// correct. A walk that fails wraps the last failed hop's error, so
// callers can tell a busy ring from a broken one.
func (n *Node) FindSuccessor(id ID) (NodeRef, error) {
	avoid := map[string]struct{}{}
	cur := n.self
	var lastErr error
	for hop := 0; hop < maxHops; hop++ {
		succs, err := n.SuccessorsOf(cur)
		if errors.Is(err, transport.ErrOverloaded) {
			succs, err = n.SuccessorsOf(cur)
		}
		if err == nil && len(succs) == 0 {
			err = fmt.Errorf("%w: %s has no successors", ErrNotFound, cur.Addr)
		}
		if err != nil {
			// cur died mid-walk: remember it and restart from self.
			n.metrics.lookupRestarts.Inc()
			avoid[cur.Addr] = struct{}{}
			lastErr = err
			cur = n.self
			continue
		}
		var succ NodeRef
		for _, s := range succs {
			if s.IsZero() {
				continue
			}
			if _, bad := avoid[s.Addr]; bad {
				continue
			}
			succ = s
			break
		}
		if succ.IsZero() {
			if lastErr != nil {
				return NodeRef{}, fmt.Errorf("%w: no live successor known at %s (last error: %w)", ErrNotFound, cur.Addr, lastErr)
			}
			return NodeRef{}, fmt.Errorf("%w: no live successor known at %s", ErrNotFound, cur.Addr)
		}
		if betweenIncl(cur.ID, id, succ.ID) {
			return succ, nil
		}
		next, err := n.closestPrecedingOf(cur, id)
		if err != nil {
			next = succ // cur unreachable for the finger query: fall forward
		}
		if _, bad := avoid[next.Addr]; bad || next.Addr == cur.Addr {
			next = succ
		}
		if next.Addr == cur.Addr {
			// No finger is closer: the successor is the best answer.
			return succ, nil
		}
		cur = next
	}
	if lastErr != nil {
		return NodeRef{}, fmt.Errorf("%w: exceeded %d hops for %s (last error: %w)", ErrNotFound, maxHops, id, lastErr)
	}
	return NodeRef{}, fmt.Errorf("%w: exceeded %d hops for %s", ErrNotFound, maxHops, id)
}

// closestPrecedingOf evaluates the closest-preceding-finger step on a
// node: locally for self, by RPC otherwise.
func (n *Node) closestPrecedingOf(ref NodeRef, id ID) (NodeRef, error) {
	if ref.Addr == n.self.Addr {
		return n.closestPreceding(id), nil
	}
	next, _, err := closestPrecedingRPC.Call(n.rpc(), ref.Addr, id, oneShot)
	if err != nil {
		return NodeRef{}, err
	}
	if next.IsZero() {
		return ref, nil
	}
	return next, nil
}

// closestPreceding returns the finger (or successor) closest to — and
// preceding — id, for lookup routing.
func (n *Node) closestPreceding(id ID) NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i := M - 1; i >= 0; i-- {
		f := n.fingers[i]
		if !f.IsZero() && between(n.self.ID, f.ID, id) {
			return f
		}
	}
	for i := len(n.succs) - 1; i >= 0; i-- {
		if between(n.self.ID, n.succs[i].ID, id) {
			return n.succs[i]
		}
	}
	return n.self
}

// Lookup resolves the node responsible for a string key.
func (n *Node) Lookup(key string) (NodeRef, error) {
	return n.FindSuccessor(HashKey(key))
}

// PingAddr reports whether the node at addr answers the Chord ping RPC —
// the liveness primitive stabilization uses, exported for co-located
// services that need the same check.
func (n *Node) PingAddr(addr string) bool {
	return n.ping(NodeRef{ID: HashAddr(addr), Addr: addr})
}

// SuccessorsOf fetches another node's successor list (or returns this
// node's own for its own reference) — the primitive ring walks and
// replica placement build on.
func (n *Node) SuccessorsOf(ref NodeRef) ([]NodeRef, error) {
	if ref.Addr == n.self.Addr {
		return n.SuccessorList(), nil
	}
	succs, _, err := successorsRPC.Call(n.rpc(), ref.Addr, none, oneShot)
	if err != nil {
		return nil, err
	}
	return succs, nil
}

// ReplicaSet returns the owner of key followed by up to count−1 of the
// owner's successors — the nodes a replicated directory entry lives on.
func (n *Node) ReplicaSet(key string, count int) ([]NodeRef, error) {
	owner, err := n.Lookup(key)
	if err != nil {
		return nil, err
	}
	out := []NodeRef{owner}
	if count <= 1 {
		return out, nil
	}
	seen := map[string]struct{}{owner.Addr: {}}
	succs, err := n.SuccessorsOf(owner)
	if err != nil || len(succs) == 0 {
		// The owner resolved but does not answer (it may have just
		// died) or names no successor: walk the ring past it so callers
		// still get live replicas to fail over to.
		prev := owner
		for len(out) < count {
			next, werr := n.FindSuccessor(prev.ID + 1)
			if werr != nil || next.IsZero() {
				break
			}
			if _, dup := seen[next.Addr]; dup {
				break // wrapped around
			}
			seen[next.Addr] = struct{}{}
			out = append(out, next)
			prev = next
		}
		return out, nil
	}
	for _, s := range succs {
		if len(out) >= count {
			break
		}
		if _, dup := seen[s.Addr]; dup || s.IsZero() {
			continue
		}
		seen[s.Addr] = struct{}{}
		out = append(out, s)
	}
	return out, nil
}
