package chord

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"iqn/internal/transport"
)

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b ID
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false},
		{10, 20, 20, false},
		{10, 5, 20, false},
		{20, 25, 10, true},  // wraparound
		{20, 5, 10, true},   // wraparound
		{20, 15, 10, false}, // wraparound
		{7, 7, 7, false},    // degenerate: x == a == b
		{7, 9, 7, true},     // degenerate single-node ring
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
	if !betweenIncl(10, 20, 20) {
		t.Error("betweenIncl excludes upper bound")
	}
	if !betweenIncl(7, 99, 7) {
		t.Error("betweenIncl degenerate ring")
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	if HashKey("term") != HashKey("term") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("x") == HashAddr("x") {
		t.Fatal("key and node hash spaces collide for equal strings")
	}
	// Crude spread check: 100 keys should not all land in one half.
	low := 0
	for i := 0; i < 100; i++ {
		if HashKey(fmt.Sprintf("k%d", i)) < 1<<63 {
			low++
		}
	}
	if low < 20 || low > 80 {
		t.Fatalf("poor hash spread: %d/100 in lower half", low)
	}
}

// TestHashIDsPinned pins ring positions: every key and address hashes
// to the ID it always had (a moved ID would move ownership of every
// published term), and hashing a key or address of ordinary length
// allocates nothing.
func TestHashIDsPinned(t *testing.T) {
	long := strings.Repeat("x", 300)
	for _, c := range []struct {
		got  ID
		want ID
	}{
		{HashKey(""), 0xf07e85f401d30b22},
		{HashKey("p2p"), 0x5f93d18285b385ee},
		{HashKey("routing"), 0x0bf3376aa9e1be3e},
		{HashKey("abcdefghijklmnopqrstuvwxyz0123456789a"), 0xe6bfd9a1c2db0eae},
		{HashKey(long), 0x259a04d949d2e4c7},
		{HashAddr("127.0.0.1:9000"), 0xa1a002c789fc3be4},
		{HashAddr("peer-07"), 0x49a45549e4078999},
	} {
		if c.got != c.want {
			t.Errorf("hash = %v, want %v", c.got, c.want)
		}
	}
	for _, key := range []string{"p2p", "forest fire fo", "abcdefghijklmnopqrstuvwxyz0123456789a"} {
		if allocs := testing.AllocsPerRun(100, func() { HashKey(key); HashAddr(key) }); allocs != 0 {
			t.Errorf("hashing a %d-byte key made %.0f allocations", len(key), allocs)
		}
	}
}

func TestFingerStartWraps(t *testing.T) {
	if got := fingerStart(^ID(0), 0); got != 0 {
		t.Fatalf("fingerStart wrap = %v, want 0", got)
	}
	if got := fingerStart(5, 3); got != 13 {
		t.Fatalf("fingerStart(5,3) = %v, want 13", got)
	}
}

// buildRing boots n nodes on an in-memory network and runs enough
// maintenance rounds for the ring and finger tables to converge.
func buildRing(t *testing.T, n int) ([]*Node, *transport.InMem) {
	t.Helper()
	net := transport.NewInMem()
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(fmt.Sprintf("node-%02d", i), net, Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	nodes[0].Create()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(nodes[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
		// A few stabilization rounds after each join keep the ring sane
		// during incremental construction.
		for round := 0; round < 3; round++ {
			for j := 0; j <= i; j++ {
				nodes[j].Stabilize()
			}
		}
	}
	stabilizeAll(nodes)
	return nodes, net
}

// stabilizeAll runs maintenance to convergence.
func stabilizeAll(nodes []*Node) {
	for round := 0; round < 2*len(nodes); round++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	for _, n := range nodes {
		n.FixAllFingers()
	}
}

// ringOrder returns the node addresses sorted by ring ID.
func ringOrder(nodes []*Node) []*Node {
	out := append([]*Node(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Self().ID < out[j].Self().ID })
	return out
}

func TestSingleNodeRing(t *testing.T) {
	nodes, _ := buildRing(t, 1)
	n := nodes[0]
	if got := n.Successor(); got.Addr != n.Self().Addr {
		t.Fatalf("single node successor = %v", got)
	}
	ref, err := n.Lookup("anything")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Addr != n.Self().Addr {
		t.Fatalf("single node lookup = %v", ref)
	}
}

func TestRingConverges(t *testing.T) {
	nodes, _ := buildRing(t, 8)
	ordered := ringOrder(nodes)
	for i, n := range ordered {
		want := ordered[(i+1)%len(ordered)].Self()
		if got := n.Successor(); got.Addr != want.Addr {
			t.Fatalf("node %s successor = %s, want %s", n.Self(), got, want)
		}
		wantPred := ordered[(i+len(ordered)-1)%len(ordered)].Self()
		if got := n.Predecessor(); got.Addr != wantPred.Addr {
			t.Fatalf("node %s predecessor = %s, want %s", n.Self(), got, wantPred)
		}
	}
}

func TestLookupConsistency(t *testing.T) {
	nodes, _ := buildRing(t, 8)
	ordered := ringOrder(nodes)
	// The owner of key k is the first node with ID ≥ hash(k) (wrapping).
	owner := func(id ID) NodeRef {
		for _, n := range ordered {
			if n.Self().ID >= id {
				return n.Self()
			}
		}
		return ordered[0].Self()
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("term-%d", i)
		want := owner(HashKey(key))
		// Every node must resolve the key to the same owner.
		for _, n := range nodes {
			got, err := n.Lookup(key)
			if err != nil {
				t.Fatalf("lookup %q from %s: %v", key, n.Self(), err)
			}
			if got.Addr != want.Addr {
				t.Fatalf("lookup %q from %s = %s, want %s", key, n.Self(), got, want)
			}
		}
	}
}

func TestSuccessorListDepth(t *testing.T) {
	nodes, _ := buildRing(t, 8)
	ordered := ringOrder(nodes)
	for i, n := range ordered {
		list := n.SuccessorList()
		if len(list) < 2 {
			t.Fatalf("node %s successor list too short: %v", n.Self(), list)
		}
		if list[0].Addr != ordered[(i+1)%8].Self().Addr {
			t.Fatalf("successor list head mismatch")
		}
		if list[1].Addr != ordered[(i+2)%8].Self().Addr {
			t.Fatalf("successor list second entry mismatch")
		}
	}
}

func TestNodeFailureHealing(t *testing.T) {
	nodes, net := buildRing(t, 8)
	ordered := ringOrder(nodes)
	// Kill two adjacent nodes (within the default successor list depth).
	dead1, dead2 := ordered[2], ordered[3]
	net.SetPartitioned(dead1.Self().Addr, true)
	net.SetPartitioned(dead2.Self().Addr, true)
	var alive []*Node
	for _, n := range ordered {
		if n != dead1 && n != dead2 {
			alive = append(alive, n)
		}
	}
	stabilizeAll(alive)
	// The ring must close around the failures.
	for i, n := range alive {
		want := alive[(i+1)%len(alive)].Self()
		if got := n.Successor(); got.Addr != want.Addr {
			t.Fatalf("after failure, %s successor = %s, want %s", n.Self(), got, want)
		}
	}
	// Lookups from every survivor still resolve, to live nodes only.
	for _, n := range alive {
		for i := 0; i < 20; i++ {
			ref, err := n.Lookup(fmt.Sprintf("k%d", i))
			if err != nil {
				t.Fatalf("post-failure lookup: %v", err)
			}
			if ref.Addr == dead1.Self().Addr || ref.Addr == dead2.Self().Addr {
				t.Fatalf("lookup resolved to dead node %s", ref)
			}
		}
	}
}

func TestLateJoin(t *testing.T) {
	nodes, net := buildRing(t, 4)
	late, err := New("node-late", net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Join(nodes[2].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), nodes...), late)
	stabilizeAll(all)
	ordered := ringOrder(all)
	for i, n := range ordered {
		want := ordered[(i+1)%len(ordered)].Self()
		if got := n.Successor(); got.Addr != want.Addr {
			t.Fatalf("after late join, %s successor = %s, want %s", n.Self(), got, want)
		}
	}
	// The late node participates in ownership.
	found := false
	for i := 0; i < 200 && !found; i++ {
		ref, err := nodes[0].Lookup(fmt.Sprintf("probe-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		found = ref.Addr == late.Self().Addr
	}
	if !found {
		t.Fatal("late node never owns any of 200 probe keys (suspicious)")
	}
}

func TestReplicaSet(t *testing.T) {
	nodes, _ := buildRing(t, 6)
	refs, err := nodes[0].ReplicaSet("some-term", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("replica set size = %d, want 3", len(refs))
	}
	seen := map[string]struct{}{}
	for _, r := range refs {
		if _, dup := seen[r.Addr]; dup {
			t.Fatalf("duplicate replica %s", r.Addr)
		}
		seen[r.Addr] = struct{}{}
	}
	// The first replica is the owner every node agrees on.
	owner, err := nodes[3].Lookup("some-term")
	if err != nil {
		t.Fatal(err)
	}
	if refs[0].Addr != owner.Addr {
		t.Fatalf("replica[0] = %s, owner = %s", refs[0], owner)
	}
	// count=1 returns just the owner.
	one, err := nodes[0].ReplicaSet("some-term", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("replica set(1) = %v", one)
	}
}

func TestNodeClose(t *testing.T) {
	net := transport.NewInMem()
	n, err := New("closer", net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.Create()
	n.Start()
	n.Close()
	n.Close() // idempotent
	if _, err := net.Call("closer", methodPing, nil); err == nil {
		t.Fatal("closed node still serving")
	}
}

func TestBackgroundMaintenance(t *testing.T) {
	// A small ring converges with only the background loops running.
	net := transport.NewInMem()
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n, err := New(fmt.Sprintf("bg-%d", i), net, Config{StabilizeInterval: 2_000_000}) // 2ms
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	nodes[0].Create()
	for i := 1; i < 4; i++ {
		if err := nodes[i].Join("bg-0"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	// Wait for convergence: every node's successor chain must visit all
	// nodes. Poll instead of sleeping a fixed time.
	deadline := 0
	for ; deadline < 1000; deadline++ {
		ordered := ringOrder(nodes)
		ok := true
		for i, n := range ordered {
			if n.Successor().Addr != ordered[(i+1)%4].Self().Addr {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		for _, n := range nodes {
			n.Stabilize() // accelerate: equivalent to loop ticks
		}
	}
	t.Fatal("background ring did not converge")
}

func TestRingSurvivesLossyNetwork(t *testing.T) {
	// Build a clean ring, then run stabilization rounds over a 10% lossy
	// network: maintenance RPCs fail sporadically, but the ring must stay
	// correct (stabilize tolerates individual failures thanks to the
	// double-ping liveness check) and lookups must succeed afterwards.
	nodes, net := buildRing(t, 8)
	lossy := transport.NewFaulty(net, 99)
	for _, n := range nodes {
		n.SetCaller(lossy)
	}
	drop := lossy.AddRule(transport.Rule{Drop: 0.1})
	for round := 0; round < 4*len(nodes); round++ {
		for _, n := range nodes {
			n.Stabilize()
		}
	}
	lossy.RemoveRule(drop)
	if len(lossy.Schedule()) == 0 {
		t.Fatal("the lossy phase dropped no maintenance call")
	}
	stabilizeAll(nodes)
	ordered := ringOrder(nodes)
	for i, n := range ordered {
		want := ordered[(i+1)%len(ordered)].Self()
		if got := n.Successor(); got.Addr != want.Addr {
			t.Fatalf("ring broken after lossy phase: %s successor = %s, want %s", n.Self(), got, want)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := nodes[i%len(nodes)].Lookup(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("lookup after lossy phase: %v", err)
		}
	}
}

func TestRandomJoinOrdersConverge(t *testing.T) {
	// Property-style: several random join orders must all converge to
	// the same correct ring.
	for trial := 0; trial < 3; trial++ {
		net := transport.NewInMem()
		const n = 6
		nodes := make([]*Node, n)
		for i := range nodes {
			node, err := New(fmt.Sprintf("rj%d-%02d", trial, i), net, Config{})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		nodes[0].Create()
		// Join through a randomly chosen already-joined node each time.
		order := []int{0}
		for i := 1; i < n; i++ {
			seed := order[(trial*7+i*3)%len(order)]
			if err := nodes[i].Join(nodes[seed].Self().Addr); err != nil {
				t.Fatal(err)
			}
			order = append(order, i)
			for r := 0; r < 3; r++ {
				for _, j := range order {
					nodes[j].Stabilize()
				}
			}
		}
		stabilizeAll(nodes)
		ordered := ringOrder(nodes)
		for i, node := range ordered {
			want := ordered[(i+1)%n].Self()
			if got := node.Successor(); got.Addr != want.Addr {
				t.Fatalf("trial %d: %s successor = %s, want %s", trial, node.Self(), got, want)
			}
		}
	}
}

func TestLookupSurvivesStaleFingers(t *testing.T) {
	// Kill two nodes and look up immediately, WITHOUT any stabilization:
	// every survivor's finger table still references the corpses. The
	// fault-tolerant walk must route around them rather than abort.
	nodes, net := buildRing(t, 10)
	ordered := ringOrder(nodes)
	dead1, dead2 := ordered[3], ordered[7]
	net.SetPartitioned(dead1.Self().Addr, true)
	net.SetPartitioned(dead2.Self().Addr, true)
	var alive []*Node
	for _, n := range ordered {
		if n != dead1 && n != dead2 {
			alive = append(alive, n)
		}
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("stale-%d", i)
		ref, err := alive[i%len(alive)].Lookup(key)
		if err != nil {
			t.Fatalf("lookup %q with stale fingers: %v", key, err)
		}
		// The resolved owner may legitimately be a dead node (its range
		// hasn't been reassigned without stabilization) — but the walk
		// itself must complete.
		_ = ref
	}
}
