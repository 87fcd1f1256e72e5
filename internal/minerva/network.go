package minerva

import (
	"fmt"

	"iqn/internal/chord"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/transport"
)

// Network is a test/benchmark harness: a whole MINERVA deployment in one
// process — N peers on a Chord ring over a transport, each indexing one
// collection and publishing to the directory — plus the centralized
// reference index that relative recall is measured against (Section 8.1).
type Network struct {
	// Peers are the live peers, in collection order.
	Peers []*Peer
	// Transport is the underlying network (an *transport.InMem for
	// experiments, so failure injection and traffic metering are
	// available).
	Transport transport.Network
	// Reference is the centralized index over the full corpus.
	Reference *ir.Index

	byName map[string]*Peer
	netFor func(name string) transport.Network
	cfg    Config
}

// BuildNetwork boots one peer per collection on the given transport,
// builds the ring from the membership, indexes every collection, and
// publishes all directory posts. corpus may be nil to skip building the
// centralized reference index.
func BuildNetwork(net transport.Network, corpus *dataset.Corpus, cols []dataset.Collection, cfg Config) (*Network, error) {
	return BuildNetworkEndpoints(net, nil, corpus, cols, cfg)
}

// BuildNetworkEndpoints is BuildNetwork with per-peer transport views:
// every peer's outgoing calls go through netFor(peerName) while the
// shared base network remains the harness handle (Network.Transport).
// The chaos harness uses this with transport.Faulty.Endpoint so injected
// one-way partitions and crashed-caller semantics know which peer is
// calling. netFor may be nil (every peer uses base directly).
func BuildNetworkEndpoints(base transport.Network, netFor func(name string) transport.Network, corpus *dataset.Corpus, cols []dataset.Collection, cfg Config) (*Network, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("minerva: no collections")
	}
	n := &Network{Transport: base, byName: map[string]*Peer{}, netFor: netFor, cfg: cfg}
	for _, col := range cols {
		peerNet := base
		if netFor != nil {
			peerNet = netFor(col.Name)
		}
		p, err := NewPeer(col.Name, peerNet, cfg)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.Peers = append(n.Peers, p)
		n.byName[col.Name] = p
	}
	// Every node computes its ring state locally from the full
	// membership — no joins, no stabilization rounds. The state equals
	// what the join protocol converges to (chord's
	// TestJoinConvergesToBootstrap); live joins and leaves afterwards go
	// through the real protocol.
	refs := make([]chord.NodeRef, len(n.Peers))
	for i, p := range n.Peers {
		refs[i] = p.Node().Self()
	}
	for _, p := range n.Peers {
		p.Node().Bootstrap(refs)
	}
	// Index and publish.
	for i, col := range cols {
		n.Peers[i].IndexCollection(col.Docs)
	}
	for _, p := range n.Peers {
		if err := p.PublishPosts(); err != nil {
			n.Close()
			return nil, fmt.Errorf("minerva: publish %s: %w", p.Name(), err)
		}
	}
	if corpus != nil {
		ref := ir.NewIndex()
		for _, d := range corpus.Docs {
			ref.AddDocument(d.ID, d.Terms)
		}
		ref.Finalize()
		n.Reference = ref
	}
	return n, nil
}

// Peer returns a peer by name (nil if unknown).
func (n *Network) Peer(name string) *Peer { return n.byName[name] }

// AddPeer grows a live network: the new peer indexes its collection,
// joins through the first live peer with the no-dark-window handoff
// (Peer.JoinLive), and publishes its directory posts at the given
// epoch. Returns the new peer.
func (n *Network) AddPeer(col dataset.Collection, epoch int64) (*Peer, error) {
	if n.byName[col.Name] != nil {
		return nil, fmt.Errorf("minerva: peer %s already exists", col.Name)
	}
	var seed string
	for _, p := range n.Peers {
		if p.Reachable() {
			seed = p.Name()
			break
		}
	}
	if seed == "" {
		return nil, fmt.Errorf("minerva: no live peer to join through")
	}
	peerNet := n.Transport
	if n.netFor != nil {
		peerNet = n.netFor(col.Name)
	}
	p, err := NewPeer(col.Name, peerNet, n.cfg)
	if err != nil {
		return nil, err
	}
	p.IndexCollection(col.Docs)
	if _, err := p.JoinLive(seed, epoch); err != nil {
		p.Close()
		return nil, fmt.Errorf("minerva: join %s: %w", col.Name, err)
	}
	n.Peers = append(n.Peers, p)
	n.byName[col.Name] = p
	return p, nil
}

// RemovePeer gracefully departs a named peer (Peer.Leave: withdraw,
// handoff push, ring splice, stop serving) and drops it from the
// network's bookkeeping. The peer stays in Peers order for the
// remaining members.
func (n *Network) RemovePeer(name string) (directory.HandoffReport, error) {
	p := n.byName[name]
	if p == nil {
		return directory.HandoffReport{}, fmt.Errorf("minerva: unknown peer %s", name)
	}
	rep, err := p.Leave()
	delete(n.byName, name)
	for i, q := range n.Peers {
		if q == p {
			n.Peers = append(n.Peers[:i], n.Peers[i+1:]...)
			break
		}
	}
	return rep, err
}

// Close shuts every peer down.
func (n *Network) Close() {
	for _, p := range n.Peers {
		p.Close()
	}
}

// ReferenceTopK returns the centralized top-k reference result for a
// query — the denominator of relative recall.
func (n *Network) ReferenceTopK(terms []string, k int, conjunctive bool) []ir.Result {
	if n.Reference == nil {
		return nil
	}
	mode := ir.Disjunctive
	if conjunctive {
		mode = ir.Conjunctive
	}
	return n.Reference.Search(terms, k, mode)
}
