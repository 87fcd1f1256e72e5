package minerva

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

func TestHTTPSearch(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	srv := httptest.NewServer(net.Peers[0].HTTPHandler())
	defer srv.Close()
	q := queries[0]
	u := srv.URL + "/search?q=" + q.Terms[0] + "+" + q.Terms[1] + "&peers=3&k=10"
	resp, err := srv.Client().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body httpSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) == 0 || len(body.Plan) == 0 || len(body.Plan) > 3 {
		t.Fatalf("body = %+v", body)
	}
	if body.Method != "iqn" {
		t.Fatalf("method = %q", body.Method)
	}
	if len(body.Results) > 10 {
		t.Fatalf("k ignored: %d results", len(body.Results))
	}
	// Steps carry novelty diagnostics.
	if len(body.Steps) == 0 || body.Steps[0].Peer == "" {
		t.Fatalf("steps = %+v", body.Steps)
	}
}

// TestHTTPSearchReportsDegradation partitions one planned peer: /search
// still answers 200, but says the search degraded and names the peer.
func TestHTTPSearchReportsDegradation(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7, Replicas: 3})
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 10, MergeK: 10, MaxPeers: 3}
	healthy, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	victim := string(healthy.Plan.Peers[0])
	net.Transport.(*transport.InMem).SetPartitioned(victim, true)
	srv := httptest.NewServer(initiator.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/search?q=" + strings.Join(q.Terms, "+") + "&peers=3&k=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200 for a degraded search", resp.StatusCode)
	}
	var body httpSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Degraded {
		t.Fatalf("degraded = false after losing %s: %+v", victim, body)
	}
	found := false
	for _, e := range body.Errors {
		found = found || (e.Peer == victim && e.Unreachable && e.Err != "")
	}
	if !found {
		t.Fatalf("errors %+v do not name the partitioned peer %s", body.Errors, victim)
	}
}

func TestHTTPSearchErrors(t *testing.T) {
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	srv := httptest.NewServer(net.Peers[0].HTTPHandler())
	defer srv.Close()
	for _, path := range []string{"/search", "/search?q=x&method=bogus"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHTTPStatus(t *testing.T) {
	net, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	srv := httptest.NewServer(net.Peers[2].HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body httpStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Peer != net.Peers[2].Name() || body.Docs == 0 || body.Terms == 0 {
		t.Fatalf("status = %+v", body)
	}
	if body.Successor == "" {
		t.Fatal("no successor in status")
	}
}

func TestPeerIndexPersistence(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	p := net.Peers[1]
	path := filepath.Join(t.TempDir(), "peer.idx")
	if err := p.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	before := p.LocalSearch(queries[0].Terms, 10, false)
	// Wipe and restore.
	if err := p.LoadDiskIndex(path); err != nil {
		t.Fatal(err)
	}
	after := p.LocalSearch(queries[0].Terms, 10, false)
	if len(before) != len(after) {
		t.Fatalf("results differ after restore: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("result %d differs after restore", i)
		}
	}
	// A fresh peer with no index cannot save.
	fresh, err := NewPeer("no-index-peer", net.Transport, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.SaveIndex(path); err == nil {
		t.Fatal("saving a nil index succeeded")
	}
}

// TestHTTPMetricsEndpoint verifies the live introspection surface: a
// peer built with a telemetry registry serves /metrics (the snapshot as
// JSON) and the pprof index, while a registry-less peer exposes
// neither.
func TestHTTPMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7, Metrics: reg})
	srv := httptest.NewServer(net.Peers[0].HTTPHandler())
	defer srv.Close()

	if _, err := net.Peers[0].Search(queries[0].Terms, SearchOptions{K: 10, MaxPeers: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["search.queries"] < 1 {
		t.Fatalf("search.queries = %d, want ≥ 1", snap.Counters["search.queries"])
	}
	if snap.Counters["transport.calls"] == 0 {
		t.Fatal("transport.calls missing from snapshot — network not instrumented")
	}
	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}

	// Without a registry the introspection surface must not exist.
	bare, _, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	bsrv := httptest.NewServer(bare.Peers[0].HTTPHandler())
	defer bsrv.Close()
	br, err := bsrv.Client().Get(bsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != 404 {
		t.Fatalf("registry-less /metrics status %d, want 404", br.StatusCode)
	}
}
