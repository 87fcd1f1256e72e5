package minerva

import (
	"strings"
	"testing"
	"time"

	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/transport"
)

// buildFaultyNetwork is buildTestNetwork over a fault-injecting
// transport with per-peer stamped endpoints.
func buildFaultyNetwork(t *testing.T, cfg Config) (*Network, *transport.Faulty, []dataset.Query) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	faulty := transport.NewFaulty(transport.NewInMem(), 11)
	faulty.SetSleep(func(time.Duration) {})
	net, err := BuildNetworkEndpoints(faulty, faulty.Endpoint, corpus, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 4, Seed: 11})
	return net, faulty, queries
}

// fastRetry is a multi-attempt policy with a no-op sleeper.
func fastRetry() transport.RetryPolicy {
	return transport.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
}

// TestSearchDegradesLoudly crashes a peer the router is known to select
// and verifies the search still returns results, reports the lost peer
// in Errors with its attempt count, and re-routes to a replacement.
func TestSearchDegradesLoudly(t *testing.T) {
	net, faulty, queries := buildFaultyNetwork(t, Config{SynopsisSeed: 7, Replicas: 2, ForwardRetry: fastRetry()})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3}
	// Learn the fault-free plan first.
	clean, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Plan.Peers) == 0 {
		t.Fatal("clean plan selected nobody")
	}
	if clean.Degraded() {
		t.Fatalf("clean search degraded: %+v", clean.Errors)
	}
	victim := clean.Plan.Peers[0]
	// Crash the victim the moment the forwarded query reaches it.
	faulty.AddRule(transport.Rule{To: string(victim), Method: MethodQuery, CrashAfter: 1})

	res, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("degraded search returned nothing")
	}
	if !res.Degraded() {
		t.Fatalf("victim %s crashed but search reports no errors", victim)
	}
	var found *PerPeerError
	for i := range res.Errors {
		if res.Errors[i].Peer == victim {
			found = &res.Errors[i]
		}
	}
	if found == nil {
		t.Fatalf("victim %s missing from Errors: %+v", victim, res.Errors)
	}
	if !found.Unreachable {
		t.Errorf("crash classified as application error: %s", found.Err)
	}
	if found.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (retry policy)", found.Attempts)
	}
	if found.Replacement == "" {
		t.Error("no replacement recorded despite available candidates")
	}
	if len(res.Rerouted) == 0 {
		t.Error("Rerouted empty despite a lost peer")
	}
	for _, rp := range res.Rerouted {
		if rp == victim {
			t.Errorf("re-routing selected the crashed victim %s again", victim)
		}
		if _, ok := res.PerPeer[rp]; !ok {
			t.Errorf("replacement %s was never queried (missing from PerPeer)", rp)
		}
	}
}

// TestSearchNoRerouteReportsOnly verifies the ablation: NoReroute still
// reports the loss but selects no replacements.
func TestSearchNoRerouteReportsOnly(t *testing.T) {
	net, faulty, queries := buildFaultyNetwork(t, Config{SynopsisSeed: 7, Replicas: 2, ForwardRetry: fastRetry()})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3, NoReroute: true}
	clean, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	victim := clean.Plan.Peers[0]
	faulty.AddRule(transport.Rule{To: string(victim), Method: MethodQuery, CrashAfter: 1})
	res, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatal("loss not reported")
	}
	if len(res.Rerouted) != 0 {
		t.Fatalf("NoReroute selected replacements: %v", res.Rerouted)
	}
	for _, pe := range res.Errors {
		if pe.Replacement != "" {
			t.Fatalf("NoReroute recorded replacement %s", pe.Replacement)
		}
	}
}

// TestMaintenanceFlappingDirectory is the regression test for the
// silently-discarded RunRound error: when the directory flaps, the
// maintainer's status must count consecutive failures and expose the
// error, and recover (reset to zero) once the directory heals.
func TestMaintenanceFlappingDirectory(t *testing.T) {
	net, faulty, _ := buildFaultyNetwork(t, Config{SynopsisSeed: 7})
	p := net.Peers[2]
	m := NewMaintainer(p)
	// Healthy round.
	if _, _, err := m.RunRound(); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("healthy status = %+v", st)
	}
	// Break the directory: every publish RPC from this peer fails with an
	// injected remote error (an application-level flap, not a dead link,
	// so retries don't mask it and every address group fails).
	rule := faulty.AddRule(transport.Rule{From: p.Name(), Method: directory.MethodPost, Error: 1})
	for round := 1; round <= 3; round++ {
		if _, _, err := m.RunRound(); err == nil {
			t.Fatalf("round %d succeeded with a broken directory", round)
		}
		st := m.Status()
		if st.ConsecutiveFailures != round {
			t.Fatalf("round %d: ConsecutiveFailures = %d", round, st.ConsecutiveFailures)
		}
		if st.LastError == "" || !strings.Contains(st.LastError, "republish") {
			t.Fatalf("round %d: LastError = %q", round, st.LastError)
		}
		if m.LastError() == nil {
			t.Fatalf("round %d: LastError() = nil", round)
		}
	}
	if st := m.Status(); st.TotalFailures != 3 {
		t.Fatalf("TotalFailures = %d, want 3", st.TotalFailures)
	}
	// Heal: the very next round succeeds and resets the consecutive
	// counter while keeping the lifetime total.
	faulty.RemoveRule(rule)
	if _, _, err := m.RunRound(); err != nil {
		t.Fatalf("post-heal round: %v", err)
	}
	st := m.Status()
	if st.ConsecutiveFailures != 0 || st.LastError != "" || m.LastError() != nil {
		t.Fatalf("post-heal status = %+v", st)
	}
	if st.TotalFailures != 3 {
		t.Fatalf("post-heal TotalFailures = %d, want 3", st.TotalFailures)
	}
	// Epochs advanced through the flap, so the directory still prunes
	// correctly after recovery.
	if st.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5 (1 ok + 3 failed + 1 ok)", st.Epoch)
	}
}

// TestMaintainerStartCountsFailures drives the background loop against a
// flapping directory and verifies failures surface on Status instead of
// vanishing (the loop keeps ticking).
func TestMaintainerStartCountsFailures(t *testing.T) {
	net, faulty, _ := buildFaultyNetwork(t, Config{SynopsisSeed: 7})
	p := net.Peers[1]
	faulty.AddRule(transport.Rule{From: p.Name(), Method: directory.MethodPost, Error: 1})
	m := NewMaintainer(p)
	m.Start(time.Millisecond)
	deadline := time.After(5 * time.Second)
	for m.Status().ConsecutiveFailures < 2 {
		select {
		case <-deadline:
			m.Stop()
			t.Fatalf("background loop never accumulated failures: %+v", m.Status())
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.Stop()
	st := m.Status()
	if st.TotalFailures < 2 || st.LastError == "" {
		t.Fatalf("status after flapping loop = %+v", st)
	}
}

// TestDirectoryClientRetries verifies directory lookups ride the client's
// retry policy: a link that drops the first attempts still serves the
// fetch.
func TestDirectoryClientRetries(t *testing.T) {
	net, faulty, queries := buildFaultyNetwork(t, Config{SynopsisSeed: 7, DirectoryRetry: transport.RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {},
	}})
	p := net.Peers[0]
	term := queries[0].Terms[0]
	// Drop 60% of everything p sends: with 4 attempts per call the fetch
	// should still come back (0.6^4 ≈ 13% per-call failure, and replicas
	// back up the rare loss).
	faulty.AddRule(transport.Rule{From: p.Name(), Drop: 0.6})
	ok := false
	for i := 0; i < 5 && !ok; i++ {
		if _, err := fetchTerm(p, term); err == nil {
			ok = true
		}
	}
	if !ok {
		t.Fatal("directory fetch never succeeded under 60% loss with 4 attempts")
	}
}

// TestSearchPerPeerErrorsDeterministic runs the same degraded search on
// two identically-built networks and requires identical error reports
// and merged results — the minerva-level replay guarantee.
func TestSearchPerPeerErrorsDeterministic(t *testing.T) {
	run := func() (*SearchResult, string) {
		corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
		cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
		faulty := transport.NewFaulty(transport.NewInMem(), 23)
		faulty.SetSleep(func(time.Duration) {})
		net, err := BuildNetworkEndpoints(faulty, faulty.Endpoint, corpus, cols,
			Config{SynopsisSeed: 7, Replicas: 2, ForwardRetry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 1, Seed: 11})
		initiator := net.Peers[0]
		opts := SearchOptions{K: 20, MaxPeers: 3}
		clean, err := initiator.Search(queries[0].Terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		faulty.AddRule(transport.Rule{To: string(clean.Plan.Peers[0]), Method: MethodQuery, CrashAfter: 1})
		res, err := initiator.Search(queries[0].Terms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, faulty.ScheduleString()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("schedules diverged:\n%s\nvs\n%s", s1, s2)
	}
	if len(r1.Errors) != len(r2.Errors) {
		t.Fatalf("error reports diverged: %+v vs %+v", r1.Errors, r2.Errors)
	}
	for i := range r1.Errors {
		if r1.Errors[i] != r2.Errors[i] {
			t.Fatalf("error %d diverged: %+v vs %+v", i, r1.Errors[i], r2.Errors[i])
		}
	}
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("result counts diverged: %d vs %d", len(r1.Results), len(r2.Results))
	}
	for i := range r1.Results {
		if r1.Results[i].DocID != r2.Results[i].DocID {
			t.Fatalf("result %d diverged: %d vs %d", i, r1.Results[i].DocID, r2.Results[i].DocID)
		}
	}
}
