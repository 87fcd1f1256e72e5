package minerva

import (
	"sort"
	"sync"

	"iqn/internal/core"
	"iqn/internal/directory"
	"iqn/internal/histogram"
	"iqn/internal/ir"
	"iqn/internal/telemetry"
	"iqn/internal/topk"
	"iqn/internal/transport"
)

// searchScratch is one search's working set: everything the initiator
// builds per search and drops when the search returns — the candidates
// and their term maps, the CORI and merge buffers of assembly, the seed
// bounds, the stream cursors and the top-k coordinator. Each peer keeps
// a sync.Pool of them, so a warm search reuses the memory of an earlier
// one instead of allocating per candidate and per entry.
//
// Ownership: a working set belongs to one search from the pool's Get
// until searchUncoalesced returns, and nothing the search returns may
// alias it. SearchResult's Results come from Coordinator.Results (a
// fresh slice), PerPeer, Errors and Rerouted are built fresh, and the
// Plan is core's. What does alias it — the candidates, the initiator's
// seed, execOutcome.deliveries — is read only before the search returns.
// Coalesced followers share the leader's SearchResult, which is why the
// rule has no exceptions. The candidates' synopses are not part of the
// working set: they are the directory cache's shared read-only sets.
type searchScratch struct {
	// cands are the assembled candidates in peer-name order; slots past
	// len keep their term maps for the next search. bounds is parallel
	// to cands: each candidate's seeded score ceiling, Σ MaxScore over
	// its posts for the query's distinct terms.
	cands  []core.Candidate
	bounds []float64
	// hists parks each candidate slot's histogram map while the slot's
	// candidate has none: TermHistograms stays nil then, as the routing
	// layer and the assembly oracle expect.
	hists []map[string]*histogram.Histogram
	// self is the initiator's reference seed, reused like a candidate.
	self core.Candidate

	// Assembly: CORI's per-search and per-candidate frequency maps, the
	// term names in sorted order, the merge's list heads and cursors,
	// the current candidate's post per term, and the names indexes of
	// the query's distinct terms in query order (the seed bound's
	// summation order).
	collFreq  map[string]int
	docFreq   map[string]int
	names     []string
	heads     []directory.PeerList
	lists     []directory.PeerList
	posts     []*directory.Post
	seedTerms []int

	// Execution: the coordinator, which candidates were forwarded to, the
	// streams and each round's batch, the candidates that answered, a
	// chunk's entries on their way into the coordinator, the current
	// round's failures, and the round's shared pull state.
	coord   topk.Coordinator
	tried   []bool
	streams []peerStream
	batch   []*peerStream
	reached []core.Candidate
	buf     []ir.Result
	failed  []int
	round   forwardRound
}

// candidateIndex returns the index of peer among cands, which assembly
// emits strictly ascending by peer name, or -1.
func candidateIndex(cands []core.Candidate, peer core.PeerID) int {
	i := sort.Search(len(cands), func(i int) bool { return cands[i].Peer >= peer })
	if i < len(cands) && cands[i].Peer == peer {
		return i
	}
	return -1
}

// seedBound returns a candidate's seeded score ceiling.
func (s *searchScratch) seedBound(peer core.PeerID) (float64, bool) {
	if i := candidateIndex(s.cands, peer); i >= 0 {
		return s.bounds[i], true
	}
	return 0, false
}

// nextCandidate appends a candidate slot for peer to cands and returns
// it, its term maps cleared. A slot that never held a candidate (past
// the old capacity) gets new maps.
func nextCandidate(cands []core.Candidate, peer string, terms int) ([]core.Candidate, *core.Candidate) {
	n := len(cands)
	if n < cap(cands) {
		cands = cands[:n+1]
	} else {
		cands = append(cands, core.Candidate{})
	}
	c := &cands[n]
	*c = core.Candidate{
		Peer:              core.PeerID(peer),
		TermSynopses:      clearedMap(c.TermSynopses, terms),
		TermCardinalities: clearedMap(c.TermCardinalities, terms),
	}
	return cands, c
}

// histograms returns candidate slot n's histogram map, cleared, for its
// first histogram of this search.
func (s *searchScratch) histograms(n int) map[string]*histogram.Histogram {
	for len(s.hists) <= n {
		s.hists = append(s.hists, nil)
	}
	s.hists[n] = clearedMap(s.hists[n], 1)
	return s.hists[n]
}

// clearedMap returns m emptied, or a new map when m is nil.
func clearedMap[K comparable, V any](m map[K]V, size int) map[K]V {
	if m == nil {
		return make(map[K]V, size)
	}
	clear(m)
	return m
}

// grown returns s resliced to length n, its contents zeroed, growing
// its backing array only when n exceeds its capacity.
func grown[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// forwardRound is what the pulls of one forwarding round share. It
// lives in the working set, so a round allocates only its goroutines.
type forwardRound struct {
	p       *Peer
	caller  transport.Caller
	policy  transport.RetryPolicy
	req     transport.ChunkRequest // Terms, K, Conjunctive and Size
	batch   []*peerStream
	offsets []int
	spans   []*telemetry.Span
	out     []chunkOutcome
	wg      sync.WaitGroup
}
