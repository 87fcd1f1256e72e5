package directory

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// counter reads one counter from a registry snapshot.
func counter(r *telemetry.Registry, name string) int64 {
	return r.Snapshot().Counters[name]
}

// dirReadRPCs counts the directory read RPCs a client sent.
func dirReadRPCs(r *telemetry.Registry) int64 {
	return counter(r, "directory.rpc."+MethodGet)
}

func TestFetchEachReplicaEmptySetDefaultsUnreachable(t *testing.T) {
	_, _, clients, _ := testRing(t, 3, 1)
	rep := FetchReport{Winners: map[string]string{}}
	// An empty replica set must yield ErrUnreachable, not a nil error
	// that a caller would wrap into "%!w(<nil>)".
	_, _, err := clients[0].readGroup(nil, []string{"nowhere"}, 0, &rep)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if strings.Contains(err.Error(), "%!") {
		t.Fatalf("malformed error: %v", err)
	}
}

func TestFetchTotalFailureErrorIsWellFormed(t *testing.T) {
	// Boot a ring, then partition the directory read method: Fetch must
	// fail with a well-formed wrapped error (no %!w(<nil>)).
	net := transport.NewFaulty(transport.NewInMem(), 1)
	_, _, clients := testRingOn(t, net, 3, 2)
	if _, err := clients[0].Publish([]Post{mkPost("peerA", "fire", 10)}); err != nil {
		t.Fatal(err)
	}
	net.AddRule(transport.Rule{Method: MethodGet, Partition: true})
	_, err := fetch(clients[0], "fire")
	if err == nil {
		t.Fatal("expected fetch to fail under a full read partition")
	}
	if strings.Contains(err.Error(), "%!w") {
		t.Fatalf("malformed error wrap: %v", err)
	}
	if !strings.Contains(err.Error(), `fetch "fire"`) {
		t.Fatalf("error lost the term context: %v", err)
	}
}

func TestCacheHitMissTTLAndInvalidation(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 1)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Minute)
	// Fake clock so TTL expiry is deterministic.
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	c.cache.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	if _, err := c.Publish([]Post{mkPost("peerA", "fire", 10)}); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name    string
		prep    func()
		opt     FetchOptions
		hits    int64 // expected running totals after the step
		misses  int64
		stale   int64
		rpcUp   bool // step must issue at least one read RPC
		listLen int
	}{
		{name: "cold miss", misses: 1, rpcUp: true, listLen: 10},
		{name: "warm hit", hits: 1, misses: 1, listLen: 10},
		{name: "second hit", hits: 2, misses: 1, listLen: 10},
		{name: "ttl expiry", prep: func() { advance(2 * time.Minute) },
			hits: 2, misses: 2, stale: 1, rpcUp: true, listLen: 10},
		{name: "hit after refill", hits: 3, misses: 2, stale: 1, listLen: 10},
		{name: "fresh bypasses cache", opt: FetchOptions{Fresh: true},
			hits: 3, misses: 2, stale: 1, rpcUp: true, listLen: 10},
		{name: "republish invalidates", prep: func() {
			if _, err := c.Publish([]Post{mkPost("peerA", "fire", 42)}); err != nil {
				t.Fatal(err)
			}
		}, hits: 3, misses: 3, stale: 1, rpcUp: true, listLen: 42},
		{name: "hit sees republished list", hits: 4, misses: 3, stale: 1, listLen: 42},
	}
	for _, step := range steps {
		if step.prep != nil {
			step.prep()
		}
		before := dirReadRPCs(reg)
		out, _, err := c.FetchAllReportOpts([]string{"fire"}, 0, step.opt)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if len(out["fire"]) != 1 || out["fire"][0].ListLength != step.listLen {
			t.Fatalf("%s: got %+v, want one post with ListLength %d", step.name, out["fire"], step.listLen)
		}
		if got := counter(reg, "directory.cache_hits"); got != step.hits {
			t.Fatalf("%s: cache_hits = %d, want %d", step.name, got, step.hits)
		}
		if got := counter(reg, "directory.cache_misses"); got != step.misses {
			t.Fatalf("%s: cache_misses = %d, want %d", step.name, got, step.misses)
		}
		if got := counter(reg, "directory.cache_stale_evictions"); got != step.stale {
			t.Fatalf("%s: stale_evictions = %d, want %d", step.name, got, step.stale)
		}
		if up := dirReadRPCs(reg) > before; up != step.rpcUp {
			t.Fatalf("%s: rpc increase = %v, want %v", step.name, up, step.rpcUp)
		}
	}
}

func TestCacheEpochInvalidationOnPrune(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 1)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	old := mkPost("peerA", "fire", 10) // epoch 0
	fresh := mkPost("peerB", "fire", 20)
	fresh.Epoch = 1
	if _, err := c.Publish([]Post{old, fresh}); err != nil {
		t.Fatal(err)
	}
	pl, err := fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 2 {
		t.Fatalf("want both posts before the prune, got %d", len(pl))
	}
	// The prune raises the floor past peerA's epoch: the cached entry
	// (minEpoch 0) must be evicted, not served.
	if dropped := c.PruneBelow(1); dropped == 0 {
		t.Fatal("prune dropped nothing")
	}
	if got := counter(reg, "directory.cache_invalidations"); got == 0 {
		t.Fatal("prune did not invalidate the cached entry")
	}
	pl, err = fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Peer != "peerB" {
		t.Fatalf("post-prune fetch = %+v, want only peerB", pl)
	}
}

func TestCacheServiceHookInvalidatesOnRemoteWrites(t *testing.T) {
	_, services, clients, _ := testRing(t, 5, 1)
	if _, err := clients[1].Publish([]Post{mkPost("peerA", "fire", 10)}); err != nil {
		t.Fatal(err)
	}
	// Find the node whose directory fraction stores the term; its client
	// is the one whose colocated cache must stay coherent with writes
	// arriving over RPC.
	owner := -1
	for i, s := range services {
		if len(s.Lookup("fire")) > 0 {
			owner = i
			break
		}
	}
	if owner < 0 {
		t.Fatal("no service stores fire")
	}
	reg := telemetry.NewRegistry()
	c := clients[owner]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	services[owner].SetInvalidation(func(term string, floor int64) {
		c.InvalidateCachedTerm(term)
		c.ObserveFloor(floor)
	})
	if _, err := fetch(c, "fire"); err != nil {
		t.Fatal(err)
	}
	// A different client republishes; the write lands on the owner's
	// service over RPC and must evict the owner's cached copy.
	if _, err := clients[1].Publish([]Post{mkPost("peerA", "fire", 99)}); err != nil {
		t.Fatal(err)
	}
	pl, err := fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].ListLength != 99 {
		t.Fatalf("cached client served stale copy %+v after remote republish", pl)
	}
	// A remote prune must fire the hook too (floor-only eviction path).
	fresh := mkPost("peerA", "fire", 7)
	fresh.Epoch = 5
	if _, err := clients[1].Publish([]Post{fresh}); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(c, "fire"); err != nil {
		t.Fatal(err)
	}
	clients[2].PruneBelow(5)
	pl, err = fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Epoch != 5 {
		t.Fatalf("post-remote-prune fetch = %+v, want only the epoch-5 post", pl)
	}
}

func TestNegativeCacheThenPublish(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 1)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	pl, err := fetch(c, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 0 {
		t.Fatalf("unpublished term returned %+v", pl)
	}
	before := dirReadRPCs(reg)
	if _, err := fetch(c, "ghost"); err != nil {
		t.Fatal(err)
	}
	if got := dirReadRPCs(reg); got != before {
		t.Fatalf("negative hit still issued RPCs (%d → %d)", before, got)
	}
	if got := counter(reg, "directory.cache_negative_hits"); got != 1 {
		t.Fatalf("cache_negative_hits = %d, want 1", got)
	}
	// Publishing the term must invalidate the negative entry.
	if _, err := c.Publish([]Post{mkPost("peerA", "ghost", 3)}); err != nil {
		t.Fatal(err)
	}
	pl, err = fetch(c, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Peer != "peerA" {
		t.Fatalf("post-publish fetch = %+v, want peerA's post", pl)
	}
}

func TestSingleflightCoalescesConcurrentFetches(t *testing.T) {
	net := transport.NewFaulty(transport.NewInMem(), 7)
	_, _, clients := testRingOn(t, net, 5, 1)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	if _, err := c.Publish([]Post{mkPost("peerA", "fire", 10)}); err != nil {
		t.Fatal(err)
	}
	c.InvalidateCachedTerm("fire")
	reg.Reset()
	// Slow the batch read so concurrent fetches pile onto one flight.
	net.AddRule(transport.Rule{Method: MethodGet, DelayProb: 1, Delay: 50 * time.Millisecond})
	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	lists := make([]PeerList, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lists[i], errs[i] = fetch(c, "fire")
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if len(lists[i]) != 1 || lists[i][0].Peer != "peerA" {
			t.Fatalf("reader %d got %+v", i, lists[i])
		}
	}
	if got := dirReadRPCs(reg); got != 1 {
		t.Fatalf("read RPCs = %d, want 1 (singleflight)", got)
	}
	snap := reg.Snapshot().Counters
	served := snap["directory.cache_hits"] + snap["directory.cache_coalesced_waits"]
	if served != readers-1 {
		t.Fatalf("hits(%d) + coalesced(%d) = %d, want %d",
			snap["directory.cache_hits"], snap["directory.cache_coalesced_waits"], served, readers-1)
	}
	if snap["directory.cache_coalesced_waits"] == 0 {
		t.Fatal("no fetch coalesced onto the in-flight read")
	}
}

func TestDecodedSynopsisMemoized(t *testing.T) {
	_, _, clients, _ := testRing(t, 5, 1)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	if _, err := c.Publish([]Post{mkPost("peerA", "fire", 10)}); err != nil {
		t.Fatal(err)
	}
	pl, err := fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.DecodedSynopsis(pl[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.DecodedSynopsis(pl[0])
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second decode did not reuse the cached synopsis instance")
	}
	if got := counter(reg, "directory.cache_synopsis_decodes"); got != 1 {
		t.Fatalf("synopsis_decodes = %d, want 1", got)
	}
	if got := counter(reg, "directory.cache_synopsis_reuse"); got != 1 {
		t.Fatalf("synopsis_reuse = %d, want 1", got)
	}
	// A republish replaces the entry, so the memo resets with it.
	if _, err := c.Publish([]Post{mkPost("peerA", "fire", 11)}); err != nil {
		t.Fatal(err)
	}
	pl, err = fetch(c, "fire")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodedSynopsis(pl[0]); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "directory.cache_synopsis_decodes"); got != 2 {
		t.Fatalf("synopsis_decodes after republish = %d, want 2", got)
	}
}

func TestRepairTermRefreshesCachedEntry(t *testing.T) {
	_, services, clients, _ := testRing(t, 5, 3)
	reg := telemetry.NewRegistry()
	c := clients[0]
	c.Metrics = reg
	c.EnableCache(time.Hour)
	if _, err := clients[1].Publish([]Post{mkPost("peerA", "delta", 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(c, "delta"); err != nil {
		t.Fatal(err)
	}
	// Diverge one replica with a fresher post, then repair: the cached
	// entry must be refreshed with the merged truth, not left stale.
	newer := mkPost("peerB", "delta", 20)
	newer.Epoch = 0
	var diverged *Service
	for _, s := range services {
		if len(s.Lookup("delta")) > 0 {
			diverged = s
			break
		}
	}
	if diverged == nil {
		t.Fatal("no service stores delta")
	}
	diverged.ReplaceTerm("delta", PeerList{mkPost("peerA", "delta", 10), newer})
	if _, err := c.RepairTerm("delta"); err != nil {
		t.Fatal(err)
	}
	before := dirReadRPCs(reg)
	pl, err := fetch(c, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if got := dirReadRPCs(reg); got != before {
		t.Fatal("fetch after repair missed the cache — repair evicted instead of refreshing")
	}
	if len(pl) != 2 {
		t.Fatalf("cached copy after repair = %+v, want the merged 2-post list", pl)
	}
}
