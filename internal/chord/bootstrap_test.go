package chord

import (
	"fmt"
	"reflect"
	"testing"

	"iqn/internal/transport"
)

// TestJoinConvergesToBootstrap: a ring built by the join protocol —
// every node joining through the first, a stabilization round after
// each join, then rounds to convergence and a full finger repair —
// ends in exactly the state Bootstrap computes from the membership:
// the same predecessor, successor list and finger table at every node,
// for every ring size below 64, successor-list lengths 1, 2 and 4 and
// two sets of node names. Harnesses may therefore boot any ring with
// Bootstrap and leave the join protocol to live joins.
func TestJoinConvergesToBootstrap(t *testing.T) {
	for _, succs := range []int{1, 2, 4} {
		for _, names := range []string{"node-%02d", "peer-w%02d"} {
			for n := 1; n < 64; n++ {
				cfg := Config{Successors: succs}
				joined := joinedRing(t, n, names, cfg)
				booted := bootedRing(t, n, names, cfg)
				for i := range joined {
					if err := sameRingState(joined[i], booted[i]); err != nil {
						t.Fatalf("successors %d, names %q, n=%d: %s: %v", succs, names, n, joined[i].Self(), err)
					}
					joined[i].Close()
					booted[i].Close()
				}
			}
		}
	}
}

// joinedRing builds an n-node ring through the join protocol.
func joinedRing(t *testing.T, n int, names string, cfg Config) []*Node {
	t.Helper()
	nodes := newNodes(t, n, names, cfg)
	nodes[0].Create()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(nodes[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
		for _, node := range nodes[:i+1] {
			node.Stabilize()
		}
	}
	// Rounds until one changes no predecessor or successor list (at most
	// the 2n a harness ran), then a full finger repair.
	for round := 0; round < 2*n; round++ {
		before := ringStates(nodes)
		for _, node := range nodes {
			node.Stabilize()
		}
		if reflect.DeepEqual(before, ringStates(nodes)) {
			break
		}
	}
	for _, node := range nodes {
		node.FixAllFingers()
	}
	return nodes
}

// ringStates lists every node's predecessor followed by its successor
// list.
func ringStates(nodes []*Node) [][]NodeRef {
	out := make([][]NodeRef, len(nodes))
	for i, node := range nodes {
		out[i] = append([]NodeRef{node.Predecessor()}, node.SuccessorList()...)
	}
	return out
}

// bootedRing builds an n-node ring with Bootstrap.
func bootedRing(t *testing.T, n int, names string, cfg Config) []*Node {
	t.Helper()
	nodes := newNodes(t, n, names, cfg)
	refs := make([]NodeRef, n)
	for i, node := range nodes {
		refs[i] = node.Self()
	}
	for _, node := range nodes {
		node.Bootstrap(refs)
	}
	return nodes
}

// newNodes registers n nodes on a fresh in-memory network.
func newNodes(t *testing.T, n int, names string, cfg Config) []*Node {
	t.Helper()
	net := transport.NewInMem()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(fmt.Sprintf(names, i), net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

// sameRingState compares two nodes' predecessor, successor list and
// finger table.
func sameRingState(a, b *Node) error {
	if pa, pb := a.Predecessor(), b.Predecessor(); pa != pb {
		return fmt.Errorf("predecessor %s, bootstrap %s", pa, pb)
	}
	if sa, sb := a.SuccessorList(), b.SuccessorList(); !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("successors %v, bootstrap %v", sa, sb)
	}
	a.mu.RLock()
	b.mu.RLock()
	defer a.mu.RUnlock()
	defer b.mu.RUnlock()
	for i := range a.fingers {
		if a.fingers[i] != b.fingers[i] {
			return fmt.Errorf("finger %d %s, bootstrap %s", i, a.fingers[i], b.fingers[i])
		}
	}
	return nil
}
