package minerva

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/transport"
)

// buildSlowNetwork is buildFaultyNetwork with real injected latency:
// delay rules actually sleep, so deadline-budget tests can measure that
// searches return within their bound instead of waiting out the fault.
func buildSlowNetwork(t *testing.T, cfg Config) (*Network, *transport.Faulty, []dataset.Query) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	faulty := transport.NewFaulty(transport.NewInMem(), 11)
	net, err := BuildNetworkEndpoints(faulty, faulty.Endpoint, corpus, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 4, Seed: 11})
	return net, faulty, queries
}

// divergentTerms counts the terms whose replica copies disagree,
// checking every stored term of every peer against its replica set.
func divergentTerms(t *testing.T, net *Network, replicas int) int {
	t.Helper()
	divergent := 0
	checked := map[string]bool{}
	for _, p := range net.Peers {
		for _, term := range p.DirectoryService().StoredTerms() {
			if checked[term] {
				continue
			}
			checked[term] = true
			set, err := p.Node().ReplicaSet(term, replicas)
			if err != nil {
				t.Fatalf("replica set of %q: %v", term, err)
			}
			var first directory.TermDigest
			for i, ref := range set {
				rp := net.Peer(ref.Addr)
				if rp == nil {
					t.Fatalf("replica %s of %q is not a peer", ref.Addr, term)
				}
				d := directory.DigestPosts(rp.DirectoryService().Lookup(term))
				if i == 0 {
					first = d
				} else if d != first {
					divergent++
					break
				}
			}
		}
	}
	return divergent
}

// TestAntiEntropyRoundHealsStaleReplica is the ISSUE's churn acceptance
// test: a directory replica sleeps through a maintenance round (so its
// fraction is stale — old epochs, posts the others pruned), and ONE
// anti-entropy sweep after it returns restores identical PeerLists on
// every live replica without any peer republishing anything.
func TestAntiEntropyRoundHealsStaleReplica(t *testing.T) {
	const replicas = 3
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7, Replicas: replicas})
	inmem := net.Transport.(*transport.InMem)

	var victim *Peer
	for _, p := range net.Peers[1:] {
		if len(p.DirectoryService().StoredTerms()) > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no peer stores any directory terms")
	}

	// Scripted churn: the victim is partitioned through a maintenance
	// round (everyone else republishes at epoch 1 and prunes epoch 0),
	// then comes back with its stale epoch-0 fraction intact.
	inmem.SetPartitioned(victim.Name(), true)
	net.MaintenanceRound(1)
	inmem.SetPartitioned(victim.Name(), false)

	if n := divergentTerms(t, net, replicas); n == 0 {
		t.Fatal("churn produced no divergence; test is vacuous")
	}

	// One sweep, no republishing.
	repaired := net.AntiEntropyRound()
	if repaired == 0 {
		t.Fatal("anti-entropy round repaired nothing despite divergence")
	}
	if n := divergentTerms(t, net, replicas); n != 0 {
		t.Fatalf("%d terms still divergent after one anti-entropy round", n)
	}
	// The prune discipline must survive the heal: no epoch-0 post may be
	// resurrected from the stale replica anywhere.
	for _, p := range net.Peers {
		svc := p.DirectoryService()
		for _, term := range svc.StoredTerms() {
			for _, post := range svc.Lookup(term) {
				if post.Epoch < 1 {
					t.Fatalf("peer %s resurrected epoch-%d post for %q/%s",
						p.Name(), post.Epoch, term, post.Peer)
				}
			}
		}
	}
	// Converged state is a fixed point.
	if n := net.AntiEntropyRound(); n != 0 {
		t.Fatalf("second anti-entropy round repaired %d, want 0", n)
	}
}

// TestSearchBudgetDegradesToPartial verifies the deadline budget end to
// end: with every remote query forward stuck behind injected latency far
// beyond the budget, the search returns within the bound with the merged
// partial top-k (the initiator's own results), every unreached peer
// reported, and BudgetExpired set — while the same search without a
// budget waits out the full injected delay.
func TestSearchBudgetDegradesToPartial(t *testing.T) {
	net, faulty, queries := buildSlowNetwork(t, Config{SynopsisSeed: 7, Replicas: 2})
	initiator := net.Peers[0]
	q := queries[0]
	faulty.AddRule(transport.Rule{Method: MethodQuery, DelayProb: 1, Delay: 300 * time.Millisecond})

	start := time.Now()
	res, err := initiator.Search(q.Terms, SearchOptions{
		K: 20, MaxPeers: 3,
		Retry:  transport.RetryPolicy{MaxAttempts: 1},
		Budget: 50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("budgeted search took %v, want well under the 300ms injected delay", elapsed)
	}
	if !res.BudgetExpired {
		t.Fatal("BudgetExpired not set despite expiry")
	}
	if len(res.Results) == 0 {
		t.Fatal("no partial results; the initiator's own list must survive")
	}
	if len(res.Errors) == 0 {
		t.Fatal("unreached peers not reported")
	}
	for _, pe := range res.Errors {
		if !pe.Unreachable {
			t.Fatalf("budget expiry classified as application error: %+v", pe)
		}
	}

	// Control: without a budget the same search waits out the delay.
	start = time.Now()
	res2, err := initiator.Search(q.Terms, SearchOptions{
		K: 20, MaxPeers: 3,
		Retry: transport.RetryPolicy{MaxAttempts: 1},
	})
	elapsed = time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BudgetExpired {
		t.Fatal("BudgetExpired set without a budget")
	}
	if res2.Degraded() {
		t.Fatalf("unbudgeted search degraded: %+v", res2.Errors)
	}
	if elapsed < 300*time.Millisecond {
		t.Fatalf("unbudgeted search returned in %v, before the 300ms injected delay", elapsed)
	}
}

// TestSearchBudgetExpiredInDirectoryFetch: when the budget runs out
// while the directory is still being read, the search degrades — no
// peer planned, the initiator's own result, BudgetExpired set and the
// timed-out replica reported — instead of failing.
func TestSearchBudgetExpiredInDirectoryFetch(t *testing.T) {
	net, faulty, queries := buildSlowNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	faulty.AddRule(transport.Rule{Method: directory.MethodGet, DelayProb: 1, Delay: 300 * time.Millisecond})

	start := time.Now()
	res, err := initiator.Search(queries[0].Terms, SearchOptions{K: 20, MaxPeers: 3, Budget: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted search failed instead of degrading: %v", err)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("budgeted search took %v, want well under the 300ms injected delay", elapsed)
	}
	if !res.BudgetExpired || len(res.Plan.Peers) != 0 {
		t.Fatalf("BudgetExpired = %v with %d planned peers, want true and none", res.BudgetExpired, len(res.Plan.Peers))
	}
	if len(res.Results) == 0 {
		t.Fatal("no results; the initiator's own list must survive")
	}
	if len(res.Directory.Errors) == 0 {
		t.Fatal("timed-out directory replica not reported")
	}
}

// TestExecuteBudgetExpiredBeforeForwarding covers the degenerate case:
// the budget is already gone when forwarding starts, so every planned
// peer is reported as skipped with a structured error instead of being
// called at all.
func TestExecuteBudgetExpiredBeforeForwarding(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	p := net.Peers[0]
	terms := queries[0].Terms
	lists, _, err := p.dir.FetchAllReportOpts(terms, 0, directory.FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := new(searchScratch)
	cands, err := p.assemble(s, terms, lists)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Terms: terms}
	self := p.selfCandidate(s, terms)
	plan, err := core.Route(q, self, cands, core.Options{MaxPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) == 0 {
		t.Fatal("empty plan")
	}
	// At chunk = K (pull) and at chunk = 16 alike: an expired budget
	// forwards nothing, whatever the chunk size would have been.
	var outcomes []execOutcome
	for _, opts := range []SearchOptions{
		{K: 20, MaxPeers: 3, DisableSelf: true},
		{K: 20, MaxPeers: 3, DisableSelf: true, TopKStreaming: true, ChunkSize: 16},
	} {
		dl := core.StartDeadline(time.Nanosecond)
		time.Sleep(time.Millisecond)
		exec, merged := p.execute(q, plan, s, self, opts, nil, dl, nil)
		if !exec.budgetExpired {
			t.Fatal("budgetExpired not set")
		}
		if len(exec.errs) != len(plan.Peers) {
			t.Fatalf("%d errors for %d planned peers", len(exec.errs), len(plan.Peers))
		}
		for _, pe := range exec.errs {
			if !strings.Contains(pe.Err, "deadline budget exhausted") {
				t.Fatalf("unexpected error text: %q", pe.Err)
			}
			if !pe.Unreachable {
				t.Fatalf("budget expiry classified as application error: %+v", pe)
			}
		}
		if len(merged) != 0 || len(exec.deliveries) != 0 {
			t.Fatal("peers were forwarded to despite an expired budget")
		}
		outcomes = append(outcomes, exec)
	}
	if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
		t.Fatalf("outcome depends on chunk size:\n pull   %+v\n stream %+v", outcomes[0], outcomes[1])
	}
}

// TestSearchBreakerTripsAndTraces arms circuit breakers on the
// initiator, partitions a selected peer, and verifies the breaker opens
// after the configured failures, the search still degrades loudly, and
// the transition trace is deterministic across identically-seeded runs.
func TestSearchBreakerTripsAndTraces(t *testing.T) {
	run := func() (string, []uint64) {
		net, faulty, queries := buildFaultyNetwork(t, Config{
			SynopsisSeed: 7, Replicas: 2,
			Breakers: &transport.BreakerConfig{FailureThreshold: 2, ProbeAfter: 64},
		})
		initiator := net.Peers[0]
		q := queries[0]
		opts := SearchOptions{K: 20, MaxPeers: 3, Retry: fastRetry()}
		clean, err := initiator.Search(q.Terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		victim := clean.Plan.Peers[0]
		faulty.AddRule(transport.Rule{To: string(victim), Method: MethodQuery, Partition: true})
		var lastDocs []uint64
		for i := 0; i < 3; i++ {
			res, err := initiator.Search(q.Terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) == 0 {
				t.Fatal("breaker-armed search returned nothing")
			}
			if !res.Degraded() {
				t.Fatalf("partitioned victim %s not reported", victim)
			}
			lastDocs = lastDocs[:0]
			for _, r := range res.Results {
				lastDocs = append(lastDocs, r.DocID)
			}
		}
		br := initiator.Breakers()
		if br.Opens() == 0 {
			t.Fatal("breaker never opened despite repeated failures")
		}
		trace := br.TraceString()
		if !strings.Contains(trace, string(victim)+": closed->open") {
			t.Fatalf("trace missing victim transition:\n%s", trace)
		}
		return trace, lastDocs
	}
	trace1, docs1 := run()
	trace2, docs2 := run()
	if trace1 != trace2 {
		t.Fatalf("breaker traces differ across identical seeds:\n%s\n---\n%s", trace1, trace2)
	}
	if len(docs1) != len(docs2) {
		t.Fatalf("merged top-k sizes differ: %d vs %d", len(docs1), len(docs2))
	}
	for i := range docs1 {
		if docs1[i] != docs2[i] {
			t.Fatalf("merged top-k diverges at %d: %d vs %d", i, docs1[i], docs2[i])
		}
	}
}

// TestMaintainerRunsAntiEntropy checks RunRound wires the sweep in: a
// replica corrupted at the current epoch is healed by the peer's next
// maintenance round and the repair count lands in the status report.
func TestMaintainerRunsAntiEntropy(t *testing.T) {
	const replicas = 3
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7, Replicas: replicas})
	// Synchronize the whole network at epoch 1 so one peer's round (also
	// at epoch 1) republishes and prunes as a no-op and the sweep's work
	// is isolated.
	net.MaintenanceRound(1)
	maintainer := net.Peers[1]
	svc := maintainer.DirectoryService()
	var term string
	var victim *directory.Service
	for _, cand := range svc.StoredTerms() {
		set, err := maintainer.Node().ReplicaSet(cand, replicas)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range set {
			rp := net.Peer(ref.Addr)
			if rp == nil || rp == maintainer {
				continue
			}
			if len(rp.DirectoryService().Lookup(cand)) > 0 {
				term, victim = cand, rp.DirectoryService()
				break
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no corruptible replica found")
	}
	// Same-epoch corruption: one replica silently loses its copy — the
	// divergence republishing cannot fix, only anti-entropy can.
	victim.ReplaceTerm(term, nil)

	m := NewMaintainer(maintainer)
	if _, _, err := m.RunRound(); err != nil {
		t.Fatal(err)
	}
	if m.Status().LastRepaired == 0 {
		t.Fatal("maintenance sweep repaired nothing despite a corrupted replica")
	}
	want := directory.DigestPosts(svc.Lookup(term))
	if got := directory.DigestPosts(victim.Lookup(term)); got != want {
		t.Fatalf("replica not healed: digest %v, want %v", got, want)
	}
}
