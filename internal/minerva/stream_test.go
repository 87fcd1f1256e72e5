package minerva

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// pullChunk issues one query call against a peer, the way the
// initiator does. The encoder writes any K, offset and size, so a
// request can carry fields no initiator would send.
func pullChunk(net transport.Network, addr string, req transport.ChunkRequest) (transport.ResultChunk, error) {
	c, _, err := transport.Query.Call(net, addr, req, transport.RetryPolicy{})
	return c, err
}

func TestChunkHandlerServesCursor(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	peer := net.Peers[2]
	terms := queries[0].Terms
	full := peer.LocalSearch(terms, 20, false)
	if len(full) < 3 {
		t.Skipf("peer %s has only %d local results for %v", peer.Name(), len(full), terms)
	}
	// Walk the stream in size-2 chunks and reassemble the full list.
	var got []ir.Result
	var gen uint64
	for off := 0; ; {
		c, err := pullChunk(net.Transport, peer.Name(), transport.ChunkRequest{
			Terms: terms, K: 20, Offset: off, Size: 2, Gen: gen,
		})
		if err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
		if gen == 0 {
			gen = c.Gen
		} else if c.Gen != gen {
			t.Fatalf("generation moved mid-stream: %d then %d", gen, c.Gen)
		}
		for _, e := range c.Entries {
			got = append(got, ir.Result{DocID: e.Doc, Score: e.Score})
		}
		off += len(c.Entries)
		if c.Done {
			break
		}
	}
	if len(got) != len(full) {
		t.Fatalf("reassembled %d entries, local search has %d", len(got), len(full))
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], full[i])
		}
	}
	// A cursor past the end is an empty final chunk, not an error.
	c, err := pullChunk(net.Transport, peer.Name(), transport.ChunkRequest{
		Terms: terms, K: 20, Offset: len(full) + 100, Size: 2, Gen: gen,
	})
	if err != nil || !c.Done || len(c.Entries) != 0 {
		t.Fatalf("past-end chunk = %+v, %v; want empty done", c, err)
	}
	// An offset outside the frame's range is rejected by the handler's
	// decoder.
	if _, err := pullChunk(net.Transport, peer.Name(), transport.ChunkRequest{
		Terms: terms, K: 20, Offset: 1 << 40, Size: 2,
	}); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	// Re-indexing replaces the snapshot generation: the old cursor is
	// answered with a stale-cursor error, a fresh stream succeeds.
	peer.IndexCollection(nil)
	peer.IndexCollection(nil) // twice: gen must move even if docs match
	_, err = pullChunk(net.Transport, peer.Name(), transport.ChunkRequest{
		Terms: terms, K: 20, Offset: 2, Size: 2, Gen: gen,
	})
	if err == nil || !isStaleCursor(err) {
		t.Fatalf("stale cursor answered with %v, want stale-cursor error", err)
	}
	if c, err := pullChunk(net.Transport, peer.Name(), transport.ChunkRequest{
		Terms: terms, K: 20, Offset: 0, Size: 2, Gen: 0,
	}); err != nil || c.Gen == gen {
		t.Fatalf("fresh stream after re-index: chunk %+v, err %v", c, err)
	}
}

// TestQueryHandlerSurvivesHugeK sends the query handler depths no real
// initiator asks for. K = 2^40 is rejected by the frame decoder; the
// largest accepted K (math.MaxInt32) must be served like an unlimited
// query instead of sizing the local top-K heap by K — which once made
// the serving process die of an unrecoverable out-of-memory.
func TestQueryHandlerSurvivesHugeK(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	peer := net.Peers[2]
	terms := queries[0].Terms
	mux := peer.Node().Mux()
	if _, err := mux.Dispatch(MethodQuery, transport.Query.EncodeRequest(transport.ChunkRequest{Terms: terms, K: 1 << 40, Size: 4})); err == nil {
		t.Fatal("K = 2^40 accepted")
	}
	raw, err := mux.Dispatch(MethodQuery, transport.Query.EncodeRequest(transport.ChunkRequest{Terms: terms, K: math.MaxInt32, Size: 4}))
	if err != nil {
		t.Fatalf("K = MaxInt32: %v", err)
	}
	c, err := transport.DecodeChunk(raw)
	if err != nil {
		t.Fatal(err)
	}
	full := peer.LocalSearch(terms, 0, false)
	want := full[:min(4, len(full))]
	if len(c.Entries) != len(want) || c.Done != (len(full) <= 4) {
		t.Fatalf("chunk has %d entries (done %v), want %d of %d", len(c.Entries), c.Done, len(want), len(full))
	}
	for i, e := range c.Entries {
		if e.Doc != want[i].DocID || e.Score != want[i].Score {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestQueryHandlerFramesMatchEncodeChunk: the handler's reply is
// exactly transport.EncodeChunk of the chunk it carries, so a probe that
// times EncodeChunk/DecodeChunk times the frames production sends.
func TestQueryHandlerFramesMatchEncodeChunk(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	peer := net.Peers[2]
	mux := peer.Node().Mux()
	for _, req := range []transport.ChunkRequest{
		{Terms: queries[0].Terms, K: 20, Size: 4},
		{Terms: queries[0].Terms, K: 20, Size: 50},
		{Terms: []string{"zzzznonexistent"}, K: 20, Size: 4},
	} {
		raw, err := mux.Dispatch(MethodQuery, transport.Query.EncodeRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		c, err := transport.DecodeChunk(raw)
		if err != nil {
			t.Fatal(err)
		}
		if enc := transport.EncodeChunk(c); !bytes.Equal(enc, raw) {
			t.Fatalf("request %+v: handler sent %x, EncodeChunk gives %x", req, raw, enc)
		}
	}
	if transport.Query.Name != MethodQuery {
		t.Fatalf("transport.Query is %q, the peers serve %q", transport.Query.Name, MethodQuery)
	}
}

// TestSearchRejectsOversizedK: a K or chunk size the query frame cannot
// carry fails the search once, before routing, instead of failing every
// forwarded call.
func TestSearchRejectsOversizedK(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	terms := queries[0].Terms
	served := func() (n int64) {
		for _, p := range net.Peers {
			n += p.QueriesServed()
		}
		return n
	}
	before := served()
	for _, opts := range []SearchOptions{
		{K: math.MaxInt32 + 1},
		{K: 20, TopKStreaming: true, ChunkSize: math.MaxInt32 + 1},
	} {
		if res, err := net.Peers[0].Search(terms, opts); err == nil || !strings.Contains(err.Error(), "above") {
			t.Fatalf("K %d, chunk size %d: result %+v, error %v; want a limit error", opts.K, opts.ChunkSize, res, err)
		}
	}
	if n := served() - before; n != 0 {
		t.Fatalf("rejected searches reached %d peers", n)
	}
	// MaxInt32 itself is a valid depth.
	if _, err := net.Peers[0].Search(terms, SearchOptions{K: math.MaxInt32, MaxPeers: 2}); err != nil {
		t.Fatalf("K = MaxInt32: %v", err)
	}
}

// TestStreamingMatchesPull is the equivalence property at the search
// level: for every query and chunk size, the streaming search returns
// exactly the pull search's merged top-k (same docs, same scores, same
// order), the same plan, and the same error surface.
func TestStreamingMatchesPull(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[0]
	for _, q := range queries {
		pull, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3, MergeK: 20})
		if err != nil {
			t.Fatalf("pull %v: %v", q.Terms, err)
		}
		for _, chunk := range []int{1, 3, 16, 64} {
			stream, err := initiator.Search(q.Terms, SearchOptions{
				K: 20, MaxPeers: 3, MergeK: 20, TopKStreaming: true, ChunkSize: chunk,
			})
			if err != nil {
				t.Fatalf("stream %v chunk=%d: %v", q.Terms, chunk, err)
			}
			if len(stream.Errors) != 0 {
				t.Fatalf("stream %v chunk=%d lost peers: %+v", q.Terms, chunk, stream.Errors)
			}
			if fmt.Sprint(stream.Plan.Peers) != fmt.Sprint(pull.Plan.Peers) {
				t.Fatalf("plans diverge: stream %v, pull %v", stream.Plan.Peers, pull.Plan.Peers)
			}
			if len(stream.Results) != len(pull.Results) {
				t.Fatalf("query %v chunk=%d: stream %d results, pull %d",
					q.Terms, chunk, len(stream.Results), len(pull.Results))
			}
			for i := range pull.Results {
				if stream.Results[i] != pull.Results[i] {
					t.Fatalf("query %v chunk=%d result %d: stream %+v, pull %+v",
						q.Terms, chunk, i, stream.Results[i], pull.Results[i])
				}
			}
		}
	}
}

// TestStreamingConjunctiveMatchesPull covers the conjunctive model too.
func TestStreamingConjunctiveMatchesPull(t *testing.T) {
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7})
	initiator := net.Peers[1]
	for _, q := range queries {
		pull, err := initiator.Search(q.Terms, SearchOptions{K: 15, MaxPeers: 4, MergeK: 15, Conjunctive: true})
		if err != nil {
			t.Fatalf("pull %v: %v", q.Terms, err)
		}
		stream, err := initiator.Search(q.Terms, SearchOptions{
			K: 15, MaxPeers: 4, MergeK: 15, Conjunctive: true, TopKStreaming: true, ChunkSize: 4,
		})
		if err != nil {
			t.Fatalf("stream %v: %v", q.Terms, err)
		}
		if len(stream.Results) != len(pull.Results) {
			t.Fatalf("query %v: stream %d results, pull %d", q.Terms, len(stream.Results), len(pull.Results))
		}
		for i := range pull.Results {
			if stream.Results[i] != pull.Results[i] {
				t.Fatalf("query %v result %d: stream %+v, pull %+v", q.Terms, i, stream.Results[i], pull.Results[i])
			}
		}
	}
}

// TestStreamingPullsFewerEntries pins the protocol's reason to exist:
// at a small merge depth, the entries crossing the wire are strictly
// fewer than the pull path's (which ships every peer's full top-K),
// while the results stay identical (TestStreamingMatchesPull).
func TestStreamingPullsFewerEntries(t *testing.T) {
	reg := telemetry.NewRegistry()
	net, _, queries := buildTestNetwork(t, Config{SynopsisSeed: 7, Metrics: reg})
	initiator := net.Peers[0]
	var pullEntries, streamEntries int64
	for _, q := range queries {
		pull, err := initiator.Search(q.Terms, SearchOptions{K: 50, MaxPeers: 5, MergeK: 10})
		if err != nil {
			t.Fatal(err)
		}
		for peer, n := range pull.PerPeer {
			if string(peer) != initiator.Name() {
				pullEntries += int64(n)
			}
		}
	}
	before := reg.Counter("topk.stream_entries").Value()
	for _, q := range queries {
		if _, err := initiator.Search(q.Terms, SearchOptions{
			K: 50, MaxPeers: 5, MergeK: 10, TopKStreaming: true, ChunkSize: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	streamEntries = reg.Counter("topk.stream_entries").Value() - before
	if streamEntries == 0 {
		t.Fatal("streaming transferred zero entries")
	}
	if streamEntries >= pullEntries {
		t.Fatalf("streaming transferred %d entries, pull %d — no savings", streamEntries, pullEntries)
	}
	if reg.Counter("topk.chunks").Value() == 0 {
		t.Fatal("topk.chunks counter never incremented")
	}
}

// hookNetwork wraps a transport and runs a callback before every
// outgoing call — the test's lever for re-indexing or killing a peer
// at an exact point of a chunk stream.
type hookNetwork struct {
	transport.Network
	mu     sync.Mutex
	before func(addr, method string, calls int) error
	calls  map[string]int
}

// arm installs the callback and restarts the per-link call counts, so
// "the victim's 2nd call" counts from the search under test, not from
// the reference searches before it.
func (h *hookNetwork) arm(before func(addr, method string, calls int) error) {
	h.mu.Lock()
	h.before, h.calls = before, nil
	h.mu.Unlock()
}

func (h *hookNetwork) Call(addr, method string, req []byte) ([]byte, error) {
	h.mu.Lock()
	key := addr + "\x00" + method
	if h.calls == nil {
		h.calls = map[string]int{}
	}
	h.calls[key]++
	n := h.calls[key]
	h.mu.Unlock()
	if h.before != nil {
		if err := h.before(addr, method, n); err != nil {
			return nil, err
		}
	}
	return h.Network.Call(addr, method, req)
}

// streamHarness builds a network whose initiator routes outgoing calls
// through a hookNetwork, and returns the per-peer document assignment
// so tests can re-index peers mid-stream.
func streamHarness(t *testing.T) (*Network, *hookNetwork, map[string][]dataset.Document, []dataset.Query) {
	t.Helper()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1200, VocabSize: 900, Seed: 23})
	cols := dataset.AssignSlidingWindow(corpus, 15, 4, 2)
	base := transport.NewInMem()
	hook := &hookNetwork{Network: base}
	docsOf := map[string][]dataset.Document{}
	for _, col := range cols {
		docsOf[col.Name] = col.Docs
	}
	initiatorName := cols[0].Name
	net, err := BuildNetworkEndpoints(base, func(name string) transport.Network {
		if name == initiatorName {
			return hook
		}
		return base
	}, corpus, cols, Config{SynopsisSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net, hook, docsOf, dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 23})
}

// TestStreamingStaleCursorRestart re-indexes a streamed peer between
// two of its chunks: the pinned generation goes stale, the stream must
// restart from offset zero against the new snapshot, and the final
// results must still match the pull path exactly (the re-index loads
// identical documents, so the result lists are unchanged).
func TestStreamingStaleCursorRestart(t *testing.T) {
	net, hook, docsOf, queries := streamHarness(t)
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3, MergeK: 20}
	pull, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Plan.Peers) == 0 {
		t.Fatal("empty plan")
	}
	victim := string(pull.Plan.Peers[0])
	restarted := false
	hook.arm(func(addr, method string, calls int) error {
		// Between the victim's first and second chunk, swap its index:
		// the stream's pinned generation goes stale.
		if method == MethodQuery && addr == victim && calls == 2 && !restarted {
			restarted = true
			net.Peer(victim).IndexCollection(docsOf[victim])
		}
		return nil
	})
	opts.TopKStreaming, opts.ChunkSize = true, 2
	stream, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted {
		t.Skip("victim early-stopped before its second chunk; restart not exercised")
	}
	if len(stream.Errors) != 0 {
		t.Fatalf("restart surfaced as peer loss: %+v", stream.Errors)
	}
	if len(stream.Results) != len(pull.Results) {
		t.Fatalf("stream %d results, pull %d", len(stream.Results), len(pull.Results))
	}
	for i := range pull.Results {
		if stream.Results[i] != pull.Results[i] {
			t.Fatalf("result %d: stream %+v, pull %+v", i, stream.Results[i], pull.Results[i])
		}
	}
}

// TestStreamingRestartPerPeerCountsFinalGeneration re-indexes a streamed
// peer between two of its chunks at merge depth 0, so every stream runs
// to completion: the restarted stream's PerPeer must count only the
// entries of the generation it finished on — the entries it delivered —
// and match the pull path, not add the entries the restart threw away.
func TestStreamingRestartPerPeerCountsFinalGeneration(t *testing.T) {
	net, hook, docsOf, queries := streamHarness(t)
	initiator := net.Peers[0]
	q := queries[0]
	opts := SearchOptions{K: 20, MaxPeers: 3}
	pull, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Plan.Peers) == 0 {
		t.Fatal("empty plan")
	}
	victim := pull.Plan.Peers[0]
	restarted := false
	hook.arm(func(addr, method string, calls int) error {
		if method == MethodQuery && addr == string(victim) && calls == 2 && !restarted {
			restarted = true
			net.Peer(string(victim)).IndexCollection(docsOf[string(victim)])
		}
		return nil
	})
	opts.TopKStreaming, opts.ChunkSize = true, 2
	stream, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted {
		t.Fatal("the victim answered in one chunk; restart not exercised")
	}
	if len(stream.Errors) != 0 {
		t.Fatalf("restart surfaced as peer loss: %+v", stream.Errors)
	}
	if got, want := stream.PerPeer[victim], pull.PerPeer[victim]; got != want {
		t.Fatalf("restarted stream PerPeer[%s] = %d, pull path %d", victim, got, want)
	}
	if !reflect.DeepEqual(stream.PerPeer, pull.PerPeer) {
		t.Fatalf("PerPeer differs: stream %v, pull %v", stream.PerPeer, pull.PerPeer)
	}
}

// TestStreamingRestartCounterResetsOnProgress is the regression test
// for the stale-cursor restart cap: the cap must bound *consecutive
// fruitless* restarts, not lifetime restarts. A long-lived stream under
// steady churn — re-indexed between chunks three times, with a
// successful chunk after every restart — used to be dropped on the
// third generation bump (restarts 1, 2, 3 against the cap of 2) even
// though every restart made progress. With the counter reset after
// each successful chunk, the stream survives arbitrarily many
// productive restarts and the results still match the pull path.
func TestStreamingRestartCounterResetsOnProgress(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1200, VocabSize: 900, Seed: 23})
	cols := dataset.AssignSlidingWindow(corpus, 15, 4, 2)
	base := transport.NewInMem()
	hook := &hookNetwork{Network: base}
	docsOf := map[string][]dataset.Document{}
	for _, col := range cols {
		docsOf[col.Name] = col.Docs
	}
	reg := telemetry.NewRegistry()
	net, err := BuildNetworkEndpoints(base, func(name string) transport.Network {
		if name == cols[0].Name {
			return hook
		}
		return base
	}, corpus, cols, Config{SynopsisSeed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 23})

	initiator := net.Peers[0]
	q := queries[0]
	// A merge depth no stream can fill keeps every planned peer
	// streaming to completion (no early stops), so the victim's chunk
	// sequence is long enough to drive three generation bumps.
	opts := SearchOptions{K: 20, MaxPeers: 3, MergeK: 100000, NoReroute: true}
	pull, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Plan.Peers) == 0 {
		t.Fatal("empty plan")
	}
	victim := string(pull.Plan.Peers[0])
	if n := len(net.Peer(victim).LocalSearch(q.Terms, 20, false)); n < 2 {
		t.Fatalf("victim %s has only %d local results; need ≥ 2 for a multi-chunk stream", victim, n)
	}
	// Swap the victim's index before its 2nd, 4th, and 6th chunk calls:
	// each swap stales the pinned generation (odd calls restart from
	// offset 0 and succeed, resetting the counter with the fix in
	// place). Three swaps exceed the old lifetime cap of 2.
	swaps := 0
	hook.arm(func(addr, method string, calls int) error {
		if method == MethodQuery && addr == victim && calls%2 == 0 && calls <= 6 {
			swaps++
			net.Peer(victim).IndexCollection(docsOf[victim])
		}
		return nil
	})
	opts.TopKStreaming, opts.ChunkSize = true, 1
	before := reg.Counter("topk.stream_restarts").Value()
	stream, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if swaps < 3 {
		t.Skipf("victim finished in %d swaps; restart sequence not exercised", swaps)
	}
	if len(stream.Errors) != 0 {
		t.Fatalf("productive restarts surfaced as peer loss: %+v", stream.Errors)
	}
	if got := reg.Counter("topk.stream_restarts").Value() - before; got < 3 {
		t.Fatalf("stream restarted %d times, want ≥ 3", got)
	}
	if len(stream.Results) != len(pull.Results) {
		t.Fatalf("stream %d results, pull %d", len(stream.Results), len(pull.Results))
	}
	for i := range pull.Results {
		if stream.Results[i] != pull.Results[i] {
			t.Fatalf("result %d: stream %+v, pull %+v", i, stream.Results[i], pull.Results[i])
		}
	}
}

// TestStreamingMidStreamDeath kills a streamed peer after its first
// chunk: the stream's partial entries must be dropped wholesale (the
// dead peer contributes nothing, like a peer that never answered), the
// loss must be reported in Errors, and the merged results must be
// exact over the survivors.
func TestStreamingMidStreamDeath(t *testing.T) {
	net, hook, _, queries := streamHarness(t)
	initiator := net.Peers[0]
	q := queries[0]
	// A merge depth no stream can fill keeps θ undefined, so every
	// planned peer streams to completion — the victim's second chunk
	// is guaranteed to be pulled, and the death is deterministic.
	opts := SearchOptions{K: 20, MaxPeers: 3, MergeK: 100000, NoReroute: true}
	pull, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pull.Plan.Peers) < 2 {
		t.Fatalf("plan too small: %v", pull.Plan.Peers)
	}
	victim := string(pull.Plan.Peers[0])
	hook.arm(func(addr, method string, calls int) error {
		if method == MethodQuery && addr == victim && calls >= 2 {
			return fmt.Errorf("%w: %s cut mid-stream", transport.ErrUnreachable, addr)
		}
		return nil
	})
	opts.TopKStreaming, opts.ChunkSize = true, 2
	stream, err := initiator.Search(q.Terms, opts)
	if err != nil {
		t.Fatal(err)
	}
	var victimErr *PerPeerError
	for i := range stream.Errors {
		if string(stream.Errors[i].Peer) == victim {
			victimErr = &stream.Errors[i]
		}
	}
	if victimErr == nil {
		t.Fatalf("victim %s missing from Errors: %+v", victim, stream.Errors)
	}
	if !victimErr.Unreachable {
		t.Fatalf("victim loss not classified unreachable: %+v", victimErr)
	}
	if !strings.Contains(victimErr.Err, "cut mid-stream") {
		t.Fatalf("victim error text %q", victimErr.Err)
	}
	// Expected: the merge over the surviving planned peers' full local
	// lists plus the initiator's own — the victim's partial chunk must
	// not leak a single document into the results.
	var lists [][]ir.Result
	for _, peer := range pull.Plan.Peers {
		if string(peer) == victim {
			continue
		}
		lists = append(lists, net.Peer(string(peer)).LocalSearch(q.Terms, 20, false))
	}
	lists = append(lists, initiator.LocalSearch(q.Terms, 20, false))
	want := ir.Merge(lists, opts.MergeK)
	if len(stream.Results) != len(want) {
		t.Fatalf("stream %d results, want %d over survivors", len(stream.Results), len(want))
	}
	for i := range want {
		if stream.Results[i] != want[i] {
			t.Fatalf("result %d: stream %+v, want %+v", i, stream.Results[i], want[i])
		}
	}
}

// TestStreamingCoalesceKeySeparates pins that a streaming search and a
// pull search never coalesce onto one flight, nor do two streaming
// searches with different chunk sizes.
func TestStreamingCoalesceKeySeparates(t *testing.T) {
	terms := []string{"a", "b"}
	base := SearchOptions{K: 10}
	stream := base
	stream.TopKStreaming = true
	chunked := stream
	chunked.ChunkSize = 4
	if coalesceKey(terms, base) == coalesceKey(terms, stream) {
		t.Fatal("pull and streaming searches share a coalesce key")
	}
	if coalesceKey(terms, stream) == coalesceKey(terms, chunked) {
		t.Fatal("different chunk sizes share a coalesce key")
	}
}

// TestPullMatchesMergeOracle keeps the pull-everything algorithm alive
// as a test oracle: for seeded random queries, a pull search's Results
// must equal ir.Merge over LocalSearch of every planned peer plus the
// initiator, entry for entry, at the keep-everything depth and at K.
func TestPullMatchesMergeOracle(t *testing.T) {
	net, corpus, _ := buildTestNetwork(t, Config{SynopsisSeed: 7})
	const k = 20
	for i, q := range dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 12, Seed: 99}) {
		initiator := net.Peers[i%len(net.Peers)]
		for _, mergeK := range []int{0, k} {
			res, err := initiator.Search(q.Terms, SearchOptions{K: k, MaxPeers: 4, MergeK: mergeK})
			if err != nil {
				t.Fatalf("query %v: %v", q.Terms, err)
			}
			if len(res.Errors) != 0 {
				t.Fatalf("query %v lost peers: %+v", q.Terms, res.Errors)
			}
			lists := [][]ir.Result{initiator.LocalSearch(q.Terms, k, false)}
			for _, peer := range res.Plan.Peers {
				lists = append(lists, net.Peer(string(peer)).LocalSearch(q.Terms, k, false))
			}
			if want := ir.Merge(lists, mergeK); !reflect.DeepEqual(res.Results, want) {
				t.Fatalf("query %v MergeK=%d: search returned %d results, oracle %d:\n got  %v\n want %v",
					q.Terms, mergeK, len(res.Results), len(want), res.Results, want)
			}
		}
	}
}

// TestChunkSizeInvariantUnderFaults runs each fault script at chunk =
// 16 and at chunk = K (pull) and asserts the two searches are
// indistinguishable from outside: identical Results, Errors (text,
// attempts, replacements), Rerouted and BudgetExpired. Faults are
// scripted by call count per link, so they hit the same point of the
// search at either chunk size.
func TestChunkSizeInvariantUnderFaults(t *testing.T) {
	cases := []struct {
		name string
		// fault returns the hook for one search, given the victim (a
		// planned peer a fault-free chunk = 16 search pulls more than one
		// chunk from) and a way to re-index it in place.
		fault func(victim string, reindex func()) func(addr, method string, calls int) error
		check func(t *testing.T, res *SearchResult)
		// wantReindex requires the script's re-index to have fired.
		wantReindex bool
	}{
		{
			name: "peer death with reroute",
			fault: func(victim string, _ func()) func(string, string, int) error {
				return func(addr, method string, _ int) error {
					if method == MethodQuery && addr == victim {
						return fmt.Errorf("%w: %s is down", transport.ErrUnreachable, addr)
					}
					return nil
				}
			},
			check: func(t *testing.T, res *SearchResult) {
				if len(res.Errors) != 1 || res.Errors[0].Replacement == "" || len(res.Rerouted) != 1 {
					t.Fatalf("victim not lost and replaced: errors %+v, rerouted %v", res.Errors, res.Rerouted)
				}
			},
		},
		{
			name:        "stale-cursor restart",
			wantReindex: true,
			fault: func(victim string, reindex func()) func(string, string, int) error {
				return func(addr, method string, calls int) error {
					if method == MethodQuery && addr == victim && calls == 2 {
						reindex()
					}
					return nil
				}
			},
			check: func(t *testing.T, res *SearchResult) {
				if len(res.Errors) != 0 {
					t.Fatalf("restart surfaced as peer loss: %+v", res.Errors)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, hook, docsOf, queries := streamHarness(t)
			initiator := net.Peers[0]
			q := queries[0]
			const k = 50
			modes := []SearchOptions{
				{K: k, MaxPeers: 3, MergeK: k, TopKStreaming: true, ChunkSize: 16},
				{K: k, MaxPeers: 3, MergeK: k},
			}
			clean, err := initiator.Search(q.Terms, modes[0])
			if err != nil {
				t.Fatal(err)
			}
			var victim string
			for _, peer := range clean.Plan.Peers {
				if clean.PerPeer[peer] > 16 {
					victim = string(peer)
					break
				}
			}
			if victim == "" {
				t.Fatalf("no planned peer streams a second chunk: %v", clean.PerPeer)
			}
			reindexes := 0
			reindex := func() {
				reindexes++
				net.Peer(victim).IndexCollection(docsOf[victim])
			}
			var runs []*SearchResult
			for _, opts := range modes {
				hook.arm(tc.fault(victim, reindex))
				res, err := initiator.Search(q.Terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				tc.check(t, res)
				runs = append(runs, res)
			}
			if tc.wantReindex && reindexes == 0 {
				t.Fatal("victim was never pulled a second time; the restart was not exercised")
			}
			stream, pull := runs[0], runs[1]
			if !reflect.DeepEqual(stream.Results, pull.Results) {
				t.Fatalf("results differ:\n chunk=16 %v\n chunk=K  %v", stream.Results, pull.Results)
			}
			if !reflect.DeepEqual(stream.Errors, pull.Errors) {
				t.Fatalf("errors differ:\n chunk=16 %+v\n chunk=K  %+v", stream.Errors, pull.Errors)
			}
			if !reflect.DeepEqual(stream.Rerouted, pull.Rerouted) || stream.BudgetExpired != pull.BudgetExpired {
				t.Fatalf("rerouted %v/%v, budget expired %v/%v",
					stream.Rerouted, pull.Rerouted, stream.BudgetExpired, pull.BudgetExpired)
			}
		})
	}
}
