package minerva

import (
	"errors"
	"math"
	"slices"
	"strings"
	"time"

	"iqn/internal/core"
	"iqn/internal/ir"
	"iqn/internal/telemetry"
	"iqn/internal/topk"
	"iqn/internal/transport"
)

// This file is query forwarding: the one way a routed query crosses the
// network. The initiator pulls each planned peer's score-descending
// local result list in chunks (MethodQuery) round by round and feeds
// them to a topk.Coordinator, which stops a peer the moment its score
// upper bound drops strictly below θ, the k-th best merged score. The
// merged list is exactly ir.Merge over the peers' full lists at depth
// MergeK — the protocol trades round trips for bytes, never results.
//
// SearchOptions.TopKStreaming picks the two parameters that decide how
// much is traded. Off (pull), the chunk size is K and bounds start at
// +Inf: the first chunk is a peer's whole list, so every planned peer
// is asked exactly once. On, chunks are ChunkSize entries and bounds
// are seeded from the directory's published MaxScore statistics the
// search already fetched for routing, so entries the threshold proves
// irrelevant never cross the wire.
//
// The loop is round-based on purpose: within a round every active
// stream is pulled concurrently, but chunks are ingested and stop
// decisions taken in stable stream order after the round completes.
// Chunk counts, early stops, and the span tree are therefore
// deterministic functions of the query's inputs and fault schedule —
// never of goroutine scheduling — which is what lets sim's differential
// twin runs compare traces byte for byte.
//
// A stream lost mid-flight (peer death, exhausted retries) is removed
// wholesale — its entries are dropped from the merge, so a failed peer
// contributes nothing — and re-routing may bring in replacement
// streams. Removing entries can lower θ and legitimately re-open
// streams stopped under the old threshold; the round loop re-checks
// Stopped every round, so the final result is exact over the surviving
// peers. A peer that swapped its index mid-stream answers with a
// stale-cursor error; the stream restarts from offset 0 against the new
// generation (bounded times) rather than mixing two snapshots'
// orderings.

// maxRerouteRounds caps re-routing: each round replaces the peers lost
// in the previous one, so pathological networks (every replacement also
// dead) terminate after replacing at most this many waves instead of
// draining the whole candidate set.
const maxRerouteRounds = 4

// maxStreamRestarts bounds consecutive stale-cursor restarts with no
// successful chunk in between: a peer re-indexing faster than the
// stream can pull even one chunk is failed, not chased forever. A
// restart that makes progress resets the count — steady churn with
// progress between generation bumps never exhausts the cap.
const maxStreamRestarts = 2

// peerStream is the client-side cursor of one remote result stream. The
// entries pulled from its current generation live in the coordinator
// (topk.Coordinator.Entries); their count is the next offset to pull.
type peerStream struct {
	peer core.PeerID
	// gen pins the server snapshot generation after the first chunk
	// (0 = not pinned yet).
	gen uint64
	// restarts counts stale-cursor restarts since the last successful
	// chunk (reset on progress, capped by maxStreamRestarts).
	restarts int
	// failed marks the stream dead (entries dropped, error reported).
	failed bool
	// reached records that at least one chunk arrived (the stream's
	// candidate then seeds Reroute's reference synopsis).
	reached bool
	// attempts accumulates transport attempts across chunks.
	attempts int
}

// chunkOutcome is one stream's answer (or failure) to a round's pull.
type chunkOutcome struct {
	chunk    transport.ResultChunk
	attempts int
	err      error
}

// isStaleCursor reports whether a chunk pull failed because the
// server's index generation moved under the cursor.
func isStaleCursor(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(err.Error(), staleCursorMsg)
}

// execOutcome is the result of executing a plan with failure handling.
type execOutcome struct {
	perPeer       map[core.PeerID]int
	errs          []PerPeerError
	rerouted      []core.PeerID
	budgetExpired bool
	// deliveries maps each answering remote peer to the entries that
	// crossed the wire from it — the raw material of adaptive
	// contribution accounting, so it is nil unless the adaptive store is
	// armed. The entries alias the working set's coordinator. Failed
	// streams and unanswered peers are absent: a transport failure says
	// nothing about a peer's honesty or usefulness.
	deliveries map[core.PeerID][]ir.Result
}

// execute forwards the query to the planned peers and returns the
// execution outcome plus the merged result list at depth MergeK. Peers
// are pulled under the search's retry policy; when peers are lost
// anyway, Select-Best-Peer is re-run against the reference synopsis of
// the peers that answered (core.Reroute) to pick replacements. Every
// lost peer is reported in the outcome's errs — the search degrades
// loudly, never silently.
//
// The deadline budget governs every stage: per-attempt timeouts are
// capped by what remains, re-routing only runs while budget remains,
// and a round that would start after expiry is not forwarded at all —
// its peers are reported as lost and the search returns the partial
// results it already has.
//
// The candidates and their seed bounds are the working set's, as
// assembled; so are the coordinator and the stream cursors. The merged
// list and the outcome's perPeer and errs are fresh, but deliveries
// alias the coordinator and die with the working set.
func (p *Peer) execute(q core.Query, plan core.Plan, s *searchScratch, initiator *core.Candidate, opts SearchOptions, prior func(core.PeerID) float64, dl *core.Deadline, span *telemetry.Span) (execOutcome, []ir.Result) {
	m := p.cfg.Metrics
	cands := s.cands
	coord := &s.coord
	coord.Reset(opts.MergeK)
	chunkSize := opts.k()
	if opts.TopKStreaming {
		chunkSize = opts.chunkSize(p.cfg)
	}
	out := execOutcome{perPeer: make(map[core.PeerID]int, len(plan.Peers))}
	if p.adaptive != nil {
		out.deliveries = make(map[core.PeerID][]ir.Result, len(plan.Peers))
	}
	s.tried = grown(s.tried, len(cands))
	s.streams, s.reached = s.streams[:0], s.reached[:0]
	addSource := func(peer core.PeerID) {
		// Pull starts every stream unbounded; streaming seeds each from
		// the directory's statistics.
		b := math.Inf(1)
		if opts.TopKStreaming {
			if seed, ok := s.seedBound(peer); ok {
				b = seed
			}
		}
		coord.AddSource(string(peer), b)
	}
	addStream := func(peer core.PeerID) {
		if i := candidateIndex(cands, peer); i >= 0 {
			s.tried[i] = true
		}
		addSource(peer)
		s.streams = append(s.streams, peerStream{peer: peer})
	}
	for _, peer := range plan.Peers {
		addStream(peer)
	}
	// The initiator's own list never crosses the wire: it is offered
	// complete before the first pull, which gives the coordinator a
	// strong θ up front — seeded bounds can then cut weak peers off with
	// zero chunks pulled.
	if !opts.DisableSelf {
		coord.Offer(p.selfSource, p.LocalSearch(q.Terms, opts.k(), opts.Conjunctive), true)
	}
	fail := func(ps *peerStream, errText string, unreachable bool) {
		ps.failed = true
		coord.RemoveSource(string(ps.peer))
		out.perPeer[ps.peer] = 0
		out.errs = append(out.errs, PerPeerError{
			Peer:        ps.peer,
			Attempts:    ps.attempts,
			Err:         errText,
			Unreachable: unreachable,
		})
		s.failed = append(s.failed, len(out.errs)-1) // indexes into out.errs
	}
	rerouteRounds := 0
	for round := 0; ; round++ {
		s.failed = s.failed[:0]
		// The batch points into s.streams, which grows (re-routing) only
		// after the round's outcomes are spent.
		s.batch = s.batch[:0]
		for i := range s.streams {
			ps := &s.streams[i]
			if ps.failed || coord.Stopped(string(ps.peer)) {
				continue
			}
			s.batch = append(s.batch, ps)
		}
		batch := s.batch
		if len(batch) == 0 {
			break
		}
		fwdSpan := span.Child("forward")
		fwdSpan.SetInt("round", int64(round))
		fwdSpan.SetInt("peers", int64(len(batch)))
		if dl.Expired() {
			fwdSpan.Set("budget_expired", "true")
			fwdSpan.End()
			for _, ps := range batch {
				fail(ps, "minerva: deadline budget exhausted", true)
			}
			break
		}
		fwdStart := time.Now()
		outcomes := p.forward(&s.round, batch, coord, q, opts, chunkSize, dl, fwdSpan)
		fwdSpan.SetDuration("spent", time.Since(fwdStart))
		fwdSpan.End()
		for i, co := range outcomes {
			ps := batch[i]
			ps.attempts += co.attempts
			if co.err != nil {
				if isStaleCursor(co.err) && ps.restarts < maxStreamRestarts {
					// The peer re-indexed under the cursor: drop what the
					// old generation sent and restart against the new one.
					ps.restarts++
					ps.gen = 0
					addSource(ps.peer)
					m.Counter("topk.stream_restarts").Inc()
					continue
				}
				m.Counter("search.peer_errors." + errCause(co.err)).Inc()
				fail(ps, co.err.Error(), transport.Retryable(co.err))
				continue
			}
			chunk := co.chunk
			if len(chunk.Entries) == 0 && !chunk.Done {
				// A non-final empty chunk would stall the cursor forever;
				// treat it as a protocol violation, not progress.
				fail(ps, "minerva: empty non-final result chunk", false)
				continue
			}
			ps.gen = chunk.Gen
			// A successful chunk at the (possibly new) generation is
			// progress: forgive past stale-cursor restarts so the cap
			// bounds consecutive fruitless restarts, not lifetime restarts.
			// A long-lived stream under steady churn would otherwise be
			// dropped after maxStreamRestarts+1 generation bumps even when
			// every restart drained fresh entries.
			ps.restarts = 0
			m.Counter("topk.chunks").Inc()
			n := len(chunk.Entries)
			s.buf = slices.Grow(s.buf[:0], n)
			for _, e := range chunk.Entries {
				s.buf = append(s.buf, ir.Result{DocID: e.Doc, Score: e.Score})
			}
			coord.Offer(string(ps.peer), s.buf, chunk.Done)
			m.Counter("topk.stream_entries").Add(int64(n))
			if !ps.reached {
				ps.reached = true
				if i := candidateIndex(cands, ps.peer); i >= 0 {
					s.reached = append(s.reached, cands[i])
				}
			}
		}
		if len(s.failed) == 0 || opts.NoReroute || rerouteRounds >= maxRerouteRounds || dl.Expired() {
			continue
		}
		remaining := s.remaining[:0]
		for i := range cands {
			if !s.tried[i] {
				remaining = append(remaining, cands[i])
			}
		}
		s.remaining = remaining
		if len(remaining) == 0 {
			continue
		}
		rerouteRounds++
		rerouteSpan := span.Child("reroute")
		rerouteSpan.SetInt("failed", int64(len(s.failed)))
		rerouteSpan.SetInt("remaining", int64(len(remaining)))
		ropts := core.Options{
			MaxPeers:      len(s.failed),
			Aggregation:   opts.Aggregation,
			UseHistograms: opts.UseHistograms,
			Span:          rerouteSpan,
			Metrics:       m,
			Prior:         prior,
		}
		if opts.NoveltyOnly {
			ropts.QualityWeight, ropts.NoveltyWeight = 0, 1
		}
		replan, err := s.router.Reroute(q, initiator, s.reached, remaining, ropts)
		rerouteSpan.End()
		if err != nil {
			continue
		}
		// Pair replacements with this round's failures in selection
		// order; replacement streams join the next round's batch.
		for j, np := range replan.Peers {
			if j < len(s.failed) {
				out.errs[s.failed[j]].Replacement = np
			}
			out.rerouted = append(out.rerouted, np)
			addStream(np)
		}
	}
	for i := range s.streams {
		ps := &s.streams[i]
		if ps.failed {
			continue
		}
		entries := coord.Entries(string(ps.peer))
		out.perPeer[ps.peer] = len(entries)
		if out.deliveries != nil {
			out.deliveries[ps.peer] = entries
		}
		if coord.EarlyStopped(string(ps.peer)) {
			m.Counter("topk.early_stops").Inc()
		}
	}
	out.budgetExpired = dl.Expired() && len(out.errs) > 0
	// Deterministic error order (by peer, then cause): forwarding is
	// concurrent and re-routing appends round by round, so without this
	// sort golden tests and trace comparisons would flake on scheduling.
	// Replacement pairing above uses indexes into errs, so the sort must
	// stay after the last round.
	slices.SortFunc(out.errs, func(a, b PerPeerError) int {
		if c := strings.Compare(string(a.Peer), string(b.Peer)); c != 0 {
			return c
		}
		return strings.Compare(a.Err, b.Err)
	})
	mergeSpan := span.Child("merge")
	merged := coord.Results()
	mergeSpan.SetInt("merged_docs", int64(coord.Merged()))
	mergeSpan.SetInt("results", int64(len(merged)))
	mergeSpan.End()
	return out, merged
}

// forward fans one round out: it pulls one chunk from every stream of
// the batch concurrently, each under the search's retry policy — with
// per-attempt timeouts capped by the remaining deadline budget, and
// through the peer's circuit-breaker set when one is armed — and
// reports per-stream outcomes in batch order. It never swallows a
// failure; execute decides whether to re-route or surface it.
//
// The first stream is pulled on the calling goroutine and every other
// one by the peer's fan-out workers (see fanout). On an in-process
// network a peer's handler runs on the stack of whichever goroutine
// calls it; the workers outlive the round, so the stacks those handlers
// grew are there for the next round and the next search. The outcomes
// live in r and are valid until the next round.
func (p *Peer) forward(r *forwardRound, batch []*peerStream, coord *topk.Coordinator, q core.Query, opts SearchOptions, chunkSize int, dl *core.Deadline, span *telemetry.Span) []chunkOutcome {
	r.p, r.caller, r.batch = p, p.caller(), batch
	r.policy = opts.Retry
	r.policy.Timeout = dl.Cap(r.policy.Timeout)
	r.req = transport.ChunkRequest{Terms: q.Terms, K: opts.k(), Conjunctive: opts.Conjunctive, Size: chunkSize}
	r.out = grown(r.out, len(batch))
	r.offsets = grown(r.offsets, len(batch))
	r.spans = grown(r.spans, len(batch))
	// Per-stream call spans are created here, sequentially, before any
	// pull starts: span IDs are assigned in creation order, so the trace
	// stays deterministic no matter how the fan-out is scheduled. The
	// offsets are read here too: the coordinator is not safe for
	// concurrent use.
	for i, ps := range batch {
		r.spans[i] = span.Child("call")
		r.spans[i].Set("peer", string(ps.peer))
		r.offsets[i] = len(coord.Entries(string(ps.peer)))
		r.spans[i].SetInt("offset", int64(r.offsets[i]))
	}
	r.wg.Add(len(batch) - 1)
	for i := 1; i < len(batch); i++ {
		p.fan.run(r, i)
	}
	r.pull(0)
	r.wg.Wait()
	clear(r.spans) // a pooled working set must not keep a trace alive
	return r.out
}

// pull fetches the next chunk of batch[i]'s stream into out[i].
func (r *forwardRound) pull(i int) {
	ps, s := r.batch[i], r.spans[i]
	req := r.req
	req.Offset, req.Gen = r.offsets[i], ps.gen
	// EncodeRequest and CallFrame rather than Call: on an in-process
	// network the peer's handler runs on this goroutine's stack, and one
	// more frame under it grows that stack on every call.
	frame := transport.Query.EncodeRequest(req)
	chunk, attempts, err := transport.Query.CallFrame(r.caller, string(ps.peer), frame, r.policy)
	if attempts > 1 {
		r.p.cfg.Metrics.Counter("transport.retries").Add(int64(attempts - 1))
	}
	s.SetInt("attempts", int64(attempts))
	if err == nil {
		s.SetInt("entries", int64(len(chunk.Entries)))
		if chunk.Done {
			s.Set("done", "true")
		}
		r.out[i] = chunkOutcome{chunk: chunk, attempts: attempts}
		s.End()
		return
	}
	s.Set("cause", errCause(err))
	r.out[i] = chunkOutcome{attempts: attempts, err: err}
	s.End()
}
