package minerva

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iqn/internal/adapt"
	"iqn/internal/core"
	"iqn/internal/cori"
	"iqn/internal/directory"
	"iqn/internal/histogram"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// Method selects the routing strategy of a search — the paper's
// experimental series.
type Method int

const (
	// MethodIQN is the paper's contribution: iterative quality×novelty.
	MethodIQN Method = iota
	// MethodCORI is the quality-only baseline.
	MethodCORI
	// MethodPrior is the SIGIR'05 one-shot overlap-aware baseline.
	MethodPrior
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodCORI:
		return "cori"
	case MethodPrior:
		return "prior"
	default:
		return "iqn"
	}
}

// SearchOptions tune a distributed search.
type SearchOptions struct {
	// K is the result-list depth: each queried peer returns its local
	// top K (default 50).
	K int
	// MergeK is the merge depth: the merged result list keeps the MergeK
	// best documents. The default (0) keeps every returned document —
	// the paper's recall measure counts a reference document as found if
	// any queried peer returned it, so evaluation must not re-truncate
	// after merging. The rule is the same with or without TopKStreaming;
	// at depth 0 there is no k-th best score to threshold against, so
	// every queried peer's list is transferred whole either way.
	MergeK int
	// MaxPeers bounds how many remote peers the query is forwarded to
	// (default 5).
	MaxPeers int
	// Method selects the routing strategy.
	Method Method
	// Aggregation selects per-peer or per-term synopsis aggregation.
	Aggregation core.AggregationMode
	// Conjunctive switches to the conjunctive query model.
	Conjunctive bool
	// UseHistograms enables score-conscious routing (Section 7.1); it
	// requires peers to have published histogram cells.
	UseHistograms bool
	// NoveltyOnly drops the quality factor (novelty-only selection).
	NoveltyOnly bool
	// CandidateLimit trims the candidate set to the top peers across the
	// fetched PeerLists before routing, ranked by summed per-term quality
	// scores — the paper's "top-k peers over all lists" (§4), computed at
	// the initiator over the lists it already holds. Zero keeps every
	// candidate.
	CandidateLimit int
	// DisableSelf excludes the initiator's local result from seeding the
	// reference synopsis and from the merged results.
	DisableSelf bool
	// Retry is the per-forward retry/backoff policy. The zero value
	// makes a single attempt with no per-call timeout — the pre-retry
	// behavior.
	Retry transport.RetryPolicy
	// NoReroute disables failure re-routing: by default, when a selected
	// peer cannot be reached the router re-runs Select-Best-Peer against
	// the reference synopsis of the peers that did answer and forwards
	// to the replacement (core.Reroute). Failed peers are reported in
	// SearchResult.Errors either way — never silently dropped.
	NoReroute bool
	// Budget is the end-to-end deadline for the whole search: directory
	// fetch, fan-out, and re-routing all spend from it (per-attempt
	// timeouts are capped by what remains). When it expires mid-search,
	// the search degrades to the merged partial top-k of the peers that
	// answered in time — outstanding peers are reported in Errors and
	// BudgetExpired is set — instead of hanging past the deadline; a
	// directory fetch it cuts short degrades to the initiator's own
	// result, the failed replicas reported in Directory. Zero means no
	// budget (the pre-deadline behavior).
	Budget time.Duration
	// TopKStreaming picks how query forwarding (MethodQuery) trades
	// round trips for bytes; it never changes Results. Off, each
	// selected peer ships its local top-K as one chunk and is asked
	// exactly once. On, peers stream ChunkSize-entry chunks and the
	// initiator's threshold coordinator stops each peer the moment its
	// score upper bound — seeded from the directory's published
	// MaxScore statistics, refined by every chunk — drops strictly below
	// the MergeK-th best merged score, so entries the threshold proves
	// irrelevant never cross the wire.
	TopKStreaming bool
	// ChunkSize is the entries-per-chunk under TopKStreaming (0: the
	// peer's Config.TopKChunkSize, default 16).
	ChunkSize int
}

func (o SearchOptions) k() int {
	if o.K <= 0 {
		return 50
	}
	return o.K
}

func (o SearchOptions) maxPeers() int {
	if o.MaxPeers <= 0 {
		return 5
	}
	return o.MaxPeers
}

func (o SearchOptions) chunkSize(cfg Config) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return cfg.topKChunkSize()
}

// PerPeerError reports one selected peer that failed during query
// forwarding — the structured alternative to silently shrinking the
// result set.
type PerPeerError struct {
	// Peer is the peer that failed.
	Peer core.PeerID
	// Attempts is how many forwarding attempts were made (retries
	// included).
	Attempts int
	// Err is the final error text.
	Err string
	// Unreachable distinguishes connectivity failures (dead peer,
	// partition, timeout — retried, replaceable) from remote application
	// errors (not retried).
	Unreachable bool
	// Replacement names the peer selected in this peer's stead by
	// failure re-routing ("" when re-routing was disabled, exhausted the
	// candidates, or was not needed).
	Replacement core.PeerID
}

// SearchResult is the outcome of one distributed search.
type SearchResult struct {
	// Results is the merged top-K result list.
	Results []ir.Result
	// Plan is the routing decision, including per-iteration diagnostics.
	Plan core.Plan
	// Candidates is the number of distinct peers the directory offered.
	Candidates int
	// PerPeer records each queried peer's raw result count (replacement
	// peers included).
	PerPeer map[core.PeerID]int
	// Errors lists every selected peer the query lost, with attempt
	// counts and replacements. A search that degrades reports here; an
	// empty slice means every planned peer answered.
	Errors []PerPeerError
	// Rerouted lists the replacement peers queried beyond the original
	// plan, in selection order.
	Rerouted []core.PeerID
	// Directory is the replica-level account of the PeerList fetch
	// (which replica served each term, failed replicas).
	Directory directory.FetchReport
	// BudgetExpired reports that the deadline budget ran out before
	// every planned peer was tried: Results is the merged partial top-k
	// of the peers that answered in time, and the peers never tried are
	// listed in Errors. When it ran out during the directory fetch, no
	// peer was planned and Results is the initiator's own result.
	BudgetExpired bool
}

// Degraded reports whether the search lost at least one selected peer.
func (r *SearchResult) Degraded() bool { return len(r.Errors) > 0 }

// Search runs a full distributed query from this peer: fetch PeerLists
// from the directory, assemble candidates, route, forward, merge.
func (p *Peer) Search(terms []string, opts SearchOptions) (*SearchResult, error) {
	return p.SearchContext(context.Background(), terms, opts)
}

// SearchContext is Search with context carriage for telemetry: a span
// placed in ctx (telemetry.WithSpan) becomes the query's trace root and
// receives the full span tree — directory.fetch, route (with one iter
// child per Select-Best-Peer round), per-round forward fan-outs with a
// call child per peer (cursor, attempt counts and failure causes),
// reroute decisions, and merge. Span annotations are deterministic functions of
// the query's inputs and fault schedule; wall-clock spend appears only
// in the trace's String() rendering, never in Canonical(). A context
// without a span traces nothing at zero cost.
//
// With Config.SearchCoalescing armed, identical in-flight searches
// (same terms and result-affecting options) share one execution: the
// first caller runs the search, duplicates arriving before it finishes
// wait for that result instead of re-fetching the directory and
// re-fanning out. Followers receive the shared SearchResult (treated
// read-only network-wide) and a root span annotated "coalesced" in
// place of the execution's span tree.
func (p *Peer) SearchContext(ctx context.Context, terms []string, opts SearchOptions) (*SearchResult, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("minerva: empty query")
	}
	// The query frame carries K and the chunk size as at most
	// math.MaxInt32; a larger one would fail every forwarded call.
	if k, size := opts.k(), opts.chunkSize(p.cfg); k > math.MaxInt32 || size > math.MaxInt32 {
		return nil, fmt.Errorf("minerva: K %d or chunk size %d above %d", k, size, math.MaxInt32)
	}
	p.cfg.Metrics.Counter("search.queries").Inc()
	if !p.cfg.SearchCoalescing {
		return p.searchUncoalesced(ctx, terms, opts)
	}
	key := coalesceKey(terms, opts)
	slot := key.slot()
	p.searchMu.Lock()
	f := p.searchFlights[slot]
	if f != nil && f.key == key {
		f.followers++
		p.searchMu.Unlock()
		out := <-f.done
		p.cfg.Metrics.Counter("search.coalesced").Inc()
		if span := telemetry.SpanFrom(ctx); span != nil {
			span.Set("terms", strings.Join(terms, ","))
			span.Set("coalesced", "true")
			span.End()
		}
		if out.err != nil {
			return nil, out.err
		}
		// Shallow copy: the merged lists, plan, and reports inside are
		// shared read-only with every coalesced caller.
		res := *out.res
		return &res, nil
	}
	if f != nil {
		// A different search hashed to the same slot: run this one on
		// its own rather than chain slots for a 2^-64 event.
		p.searchMu.Unlock()
		return p.searchUncoalesced(ctx, terms, opts)
	}
	if p.searchFlights == nil {
		p.searchFlights = map[uint64]*searchFlight{}
	}
	f = flightPool.Get().(*searchFlight)
	f.key = key
	p.searchFlights[slot] = f
	p.searchMu.Unlock()
	res, err := p.searchUncoalesced(ctx, terms, opts)
	p.searchMu.Lock()
	delete(p.searchFlights, slot)
	followers := f.followers
	p.searchMu.Unlock()
	// Each send completes only once a follower holds the outcome, so
	// after the last one nothing reads f and it can be reused.
	for ; followers > 0; followers-- {
		f.done <- flightOutcome{res: res, err: err}
	}
	*f = searchFlight{done: f.done}
	flightPool.Put(f)
	return res, err
}

// searchFlight is one in-flight coalesced search. Followers register
// under searchMu and wait on done; the leader hands each of them the
// outcome over done, one send per follower, and then returns the flight
// to flightPool. done is never closed, so a pooled flight keeps it.
type searchFlight struct {
	key       flightKey
	followers int
	done      chan flightOutcome
}

// flightOutcome is what a leader hands each follower.
type flightOutcome struct {
	res *SearchResult
	err error
}

// flightPool recycles flights, so a search no duplicate joins allocates
// nothing for coalescing.
var flightPool = sync.Pool{New: func() any {
	return &searchFlight{done: make(chan flightOutcome)}
}}

// flightSeed hashes flight keys into searchFlights slots.
var flightSeed = maphash.MakeSeed()

// flightKey identifies a search for coalescing: two searches coalesce
// only when every result-affecting input matches. It is a comparable
// struct rather than a formatted string, so no two different searches
// can share one: the terms stay separate strings and every option is a
// field of its own. The first terms sit in head; the rest, rare, are
// joined into tail, each prefixed with its length.
type flightKey struct {
	terms int
	head  [4]string
	tail  string

	k, mergeK, maxPeers, candidateLimit, chunkSize int
	method                                         Method
	aggregation                                    core.AggregationMode
	conjunctive, useHistograms, noveltyOnly        bool
	disableSelf, noReroute, topKStreaming          bool
	budget                                         time.Duration

	// The retry policy without Sleep, and Jitter by its bits, so a NaN
	// jitter still equals itself.
	retryAttempts                     int
	retryBase, retryMax, retryTimeout time.Duration
	retryJitter                       uint64
	retrySeed                         int64
}

// slot hashes the key into searchFlights. Two keys may share a slot;
// the caller compares whole keys before coalescing. The hash is built
// on the stack, so it allocates nothing.
func (k *flightKey) slot() uint64 {
	ints := [...]int64{
		int64(len(k.head[0])), int64(len(k.head[1])), int64(len(k.head[2])), int64(len(k.head[3])),
		int64(len(k.tail)), int64(k.terms), int64(k.k), int64(k.mergeK), int64(k.maxPeers),
		int64(k.candidateLimit), int64(k.chunkSize), int64(k.method), int64(k.aggregation),
		int64(k.budget), int64(k.retryAttempts), int64(k.retryBase), int64(k.retryMax),
		int64(k.retryTimeout), int64(k.retryJitter), k.retrySeed,
	}
	var b [8*len(ints) + 1]byte
	buf := b[:0]
	for _, v := range ints {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	var flags byte
	for i, on := range [...]bool{k.conjunctive, k.useHistograms, k.noveltyOnly, k.disableSelf, k.noReroute, k.topKStreaming} {
		if on {
			flags |= 1 << i
		}
	}
	buf = append(buf, flags)
	var h maphash.Hash
	h.SetSeed(flightSeed)
	h.Write(buf)
	for _, t := range k.head {
		h.WriteString(t)
	}
	h.WriteString(k.tail)
	return h.Sum64()
}

// coalesceKey canonicalizes a query for whole-search coalescing.
// Retry.Sleep is deliberately excluded — a pacing-only test hook whose
// function identity would defeat coalescing without ever changing a
// result. Building the key allocates only for a query of more terms
// than the key holds in place.
func coalesceKey(terms []string, o SearchOptions) flightKey {
	r := o.Retry
	key := flightKey{
		terms:          len(terms),
		k:              o.K,
		mergeK:         o.MergeK,
		maxPeers:       o.MaxPeers,
		candidateLimit: o.CandidateLimit,
		chunkSize:      o.ChunkSize,
		method:         o.Method,
		aggregation:    o.Aggregation,
		conjunctive:    o.Conjunctive,
		useHistograms:  o.UseHistograms,
		noveltyOnly:    o.NoveltyOnly,
		disableSelf:    o.DisableSelf,
		noReroute:      o.NoReroute,
		topKStreaming:  o.TopKStreaming,
		budget:         o.Budget,
		retryAttempts:  r.MaxAttempts,
		retryBase:      r.BaseDelay,
		retryMax:       r.MaxDelay,
		retryTimeout:   r.Timeout,
		retryJitter:    math.Float64bits(r.Jitter),
		retrySeed:      r.Seed,
	}
	n := copy(key.head[:], terms)
	if len(terms) > n {
		var tail []byte
		for _, t := range terms[n:] {
			tail = strconv.AppendInt(tail, int64(len(t)), 10)
			tail = append(tail, ':')
			tail = append(tail, t...)
		}
		key.tail = string(tail)
	}
	return key
}

// searchUncoalesced is the actual search execution (directory fetch,
// candidate assembly, routing, fan-out, merge).
func (p *Peer) searchUncoalesced(ctx context.Context, terms []string, opts SearchOptions) (*SearchResult, error) {
	m := p.cfg.Metrics
	span := telemetry.SpanFrom(ctx)
	if span != nil {
		span.Set("terms", strings.Join(terms, ","))
	}
	span.Set("method", opts.Method.String())
	span.SetInt("max_peers", int64(opts.maxPeers()))

	dl := core.StartDeadline(opts.Budget)
	fetchSpan := span.Child("directory.fetch")
	fetchStart := time.Now()
	lists, dirRep, err := p.dir.FetchAllReportOpts(terms, dl.Cap(0), directory.FetchOptions{})
	fetchSpan.SetInt("terms", int64(len(terms)))
	fetchSpan.SetInt("errors", int64(len(dirRep.Errors)))
	fetchSpan.SetDuration("spent", time.Since(fetchStart))
	fetchSpan.End()
	// A fetch the budget cut short degrades like an expired fan-out: no
	// candidates, the initiator's own result, BudgetExpired set.
	fetchExpired := err != nil && dl.Expired()
	if err != nil && !fetchExpired {
		span.Set("failed", "directory-fetch")
		span.End()
		m.Counter("search.fetch_failures").Inc()
		return nil, fmt.Errorf("minerva: fetch peerlists: %w", err)
	}
	if opts.CandidateLimit > 0 {
		lists = trimPeerLists(lists, opts.CandidateLimit)
	}
	s := p.scratch.Get().(*searchScratch)
	defer p.putScratch(s)
	cands, err := p.assemble(s, terms, lists)
	if err != nil {
		return nil, err
	}
	q := core.Query{Terms: terms}
	if opts.Conjunctive {
		q.Type = core.Conjunctive
	}
	routeSpan := span.Child("route")
	routeSpan.SetInt("candidates", int64(len(cands)))
	routeOpts := core.Options{
		MaxPeers:      opts.maxPeers(),
		Aggregation:   opts.Aggregation,
		UseHistograms: opts.UseHistograms,
		Span:          routeSpan,
		Metrics:       m,
	}
	if opts.NoveltyOnly {
		routeOpts.QualityWeight, routeOpts.NoveltyWeight = 0, 1
	}
	if p.adaptive != nil {
		var info adapt.PriorInfo
		routeOpts.Prior, info = p.adaptive.Prior(terms)
		if info.Hit {
			routeSpan.Set("adaptive", "hit")
			routeSpan.Setf("adaptive_cluster", "%s", info.ClusterTerms())
			routeSpan.Setf("adaptive_similarity", "%.6g", info.Similarity)
		} else {
			routeSpan.Set("adaptive", "miss")
		}
		routeSpan.SetInt("adaptive_flagged", int64(info.Flagged))
	}
	var initiator *core.Candidate
	if !opts.DisableSelf {
		initiator = p.selfCandidate(s, terms)
	}
	var plan core.Plan
	switch opts.Method {
	case MethodCORI:
		plan, err = core.RouteCORI(q, cands, routeOpts.MaxPeers)
	case MethodPrior:
		plan, err = core.RoutePrior(q, initiator, cands, routeOpts)
	default:
		plan, err = s.router.Route(q, initiator, cands, routeOpts)
	}
	if err != nil {
		routeSpan.End()
		span.End()
		return nil, fmt.Errorf("minerva: route: %w", err)
	}
	routeSpan.SetInt("planned", int64(len(plan.Peers)))
	routeSpan.End()
	exec, merged := p.execute(q, plan, s, initiator, opts, routeOpts.Prior, dl, span)
	exec.budgetExpired = exec.budgetExpired || fetchExpired
	if exec.budgetExpired {
		span.Set("budget_expired", "true")
		m.Counter("search.budget_expired").Inc()
	}
	if n := len(exec.rerouted); n > 0 {
		m.Counter("search.rerouted_peers").Add(int64(n))
	}
	if p.adaptive != nil {
		p.recordAdaptive(terms, plan, s, exec, merged, opts)
	}
	span.End()
	return &SearchResult{
		Results:       merged,
		Plan:          plan,
		Candidates:    len(cands),
		PerPeer:       exec.perPeer,
		Errors:        exec.errs,
		Rerouted:      exec.rerouted,
		Directory:     dirRep,
		BudgetExpired: exec.budgetExpired,
	}, nil
}

// errCause classifies a forwarding error for trace annotations and
// per-cause metrics. Breaker and timeout checks come first: both match
// ErrUnreachable under errors.Is, and the specific cause is the useful
// one.
func errCause(err error) string {
	var re *transport.RemoteError
	switch {
	case errors.Is(err, transport.ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, transport.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, transport.ErrTimeout):
		return "timeout"
	case errors.Is(err, transport.ErrUnreachable):
		return "unreachable"
	case errors.As(err, &re):
		return "remote"
	default:
		return "other"
	}
}

// assemble turns the fetched PeerLists into routing candidates, built
// in the search's working set: per peer, the per-term synopses,
// cardinalities, histograms, the CORI quality score computed from the
// posted statistics, and the seeded score ceiling of the streaming
// protocol (s.bounds).
//
// The directory serves every PeerList sorted by peer name, so the
// candidates come out of a k-way merge over the term lists, already in
// name order: one step gathers every post of the smallest peer name at
// the lists' heads. A list that is not sorted (a buggy or hostile
// directory) goes through directory.SortedByPeer first. No per-peer
// state is kept beyond the candidate itself, and a candidate slot that
// held one in an earlier search is cleared and refilled, so a warm
// assembly allocates nothing per candidate.
func (p *Peer) assemble(s *searchScratch, terms []string, lists map[string]directory.PeerList) ([]core.Candidate, error) {
	// CORI globals, with the paper's approximation: |V_avg| over the
	// collections found in the PeerLists, np = distinct peers seen
	// (excluding ourselves, which is not a routing candidate). Every
	// |V_i| is an integer, so the sum is exact in any list order.
	s.collFreq = clearedMap(s.collFreq, len(lists))
	g := cori.GlobalStats{CollectionFreq: s.collFreq}
	names := s.names[:0]
	var spaceSum float64
	var spaceN int
	for term, pl := range lists {
		names = append(names, term)
		g.CollectionFreq[term] = len(pl)
		for _, post := range pl {
			spaceSum += float64(post.TermSpaceSize)
			spaceN++
		}
	}
	if spaceN > 0 {
		g.AvgTermSpaceSize = spaceSum / float64(spaceN)
	}
	slices.Sort(names)
	s.names = names
	s.heads = grown(s.heads, len(names))
	for i, term := range names {
		s.heads[i] = directory.SortedByPeer(lists[term])
	}
	// The seed bound sums a peer's MaxScore over the query's distinct
	// terms in query order, so its bits do not depend on map order.
	s.seedTerms = s.seedTerms[:0]
	for _, term := range terms {
		if i, ok := slices.BinarySearch(names, term); ok && !slices.Contains(s.seedTerms, i) {
			s.seedTerms = append(s.seedTerms, i)
		}
	}
	s.lists = grown(s.lists, len(names))
	m := peerMerge{heads: s.heads, lists: s.lists}
	m.reset()
	for peer, ok := m.next(); ok; peer, ok = m.next() {
		if peer != p.name {
			g.NumPeers++
		}
		m.skip(peer)
	}
	cands, bounds := s.cands[:0], s.bounds[:0]
	// cori.Score only reads the stats, so one DocFreq map serves every
	// candidate in turn.
	s.docFreq = clearedMap(s.docFreq, len(names))
	stats := cori.CollectionStats{DocFreq: s.docFreq}
	s.posts = grown(s.posts, len(names))
	m.reset()
	for peer, ok := m.next(); ok; peer, ok = m.next() {
		if peer == p.name {
			m.skip(peer)
			continue
		}
		var c *core.Candidate
		cands, c = nextCandidate(cands, peer, len(names))
		clear(stats.DocFreq)
		clear(s.posts)
		for i := range m.lists {
			pl := m.lists[i]
			if len(pl) == 0 || pl[0].Peer != peer {
				continue
			}
			post := &pl[0]
			m.lists[i] = pl[1:]
			s.posts[i] = post
			term := names[i]
			stats.DocFreq[term] = post.ListLength
			stats.TermSpaceSize = post.TermSpaceSize
			c.TermCardinalities[term] = float64(post.ListLength)
			if len(post.Synopsis) > 0 {
				// Decoded through the directory client so the read cache
				// (when armed) unmarshals each synopsis once per epoch, not
				// once per query. The routing layer treats candidate
				// synopses as read-only, so sharing the Set is safe.
				set, err := p.dir.DecodedSynopsis(*post)
				if err != nil {
					return nil, fmt.Errorf("minerva: synopsis of %s/%s: %w", peer, term, err)
				}
				c.TermSynopses[term] = set
			}
			if len(post.Histogram) > 0 {
				h, err := decodeHistogram(post.Histogram)
				if err != nil {
					return nil, fmt.Errorf("minerva: histogram of %s/%s: %w", peer, term, err)
				}
				if c.TermHistograms == nil {
					c.TermHistograms = s.histograms(len(cands) - 1)
				}
				c.TermHistograms[term] = h
			}
		}
		c.Quality = cori.Score(terms, stats, g)
		// Local scores add per-term contributions over distinct terms
		// (ir.Index.Search collapses duplicates), so no document at the
		// peer scores above this sum — a sound ceiling until the first
		// chunk refines it. Like routing itself, the seed trusts the
		// published statistics; a peer whose index grew since its last
		// publish is re-bounded by its first chunk.
		var bound float64
		for _, i := range s.seedTerms {
			if post := s.posts[i]; post != nil {
				bound += post.MaxScore
			}
		}
		bounds = append(bounds, bound)
	}
	s.cands, s.bounds = cands, bounds
	return cands, nil
}

// peerMerge walks a set of PeerLists, each strictly sorted by peer
// name, in merged name order.
type peerMerge struct {
	heads []directory.PeerList // the full lists
	lists []directory.PeerList // what is left of each
}

// reset rewinds every list to its start.
func (m *peerMerge) reset() { copy(m.lists, m.heads) }

// next returns the smallest peer name at the lists' heads; ok is false
// once every list is exhausted.
func (m *peerMerge) next() (peer string, ok bool) {
	for _, pl := range m.lists {
		if len(pl) > 0 && (!ok || pl[0].Peer < peer) {
			peer, ok = pl[0].Peer, true
		}
	}
	return peer, ok
}

// skip consumes peer's post from every list headed by it.
func (m *peerMerge) skip(peer string) {
	for i, pl := range m.lists {
		if len(pl) > 0 && pl[0].Peer == peer {
			m.lists[i] = pl[1:]
		}
	}
}

// trimPeerLists keeps only the posts of the top `limit` peers by summed
// per-term quality, ordered by score descending, then name ascending. The
// per-term quality is the CORI T component of the post's list length,
// df/(df+200) — a pure function of the post, so list owners could
// precompute and sort server-side as §4 envisions. Here the lists are
// already in memory, so one sort ranks the peers: a threshold algorithm
// over them would save no messages.
func trimPeerLists(lists map[string]directory.PeerList, limit int) map[string]directory.PeerList {
	terms := make([]string, 0, len(lists))
	for term := range lists {
		terms = append(terms, term)
	}
	sort.Strings(terms) // a fixed summation order keeps the scores bit-stable
	score := map[string]float64{}
	for _, term := range terms {
		for _, post := range lists[term] {
			df := float64(post.ListLength)
			score[post.Peer] += df / (df + 200)
		}
	}
	if len(score) <= limit {
		return lists
	}
	peers := make([]string, 0, len(score))
	for peer := range score {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool {
		if score[peers[i]] != score[peers[j]] {
			return score[peers[i]] > score[peers[j]]
		}
		return peers[i] < peers[j]
	})
	keep := make(map[string]struct{}, limit)
	for _, peer := range peers[:limit] {
		keep[peer] = struct{}{}
	}
	out := make(map[string]directory.PeerList, len(lists))
	for term, pl := range lists {
		kept := make(directory.PeerList, 0, len(pl))
		for _, post := range pl {
			if _, ok := keep[post.Peer]; ok {
				kept = append(kept, post)
			}
		}
		out[term] = kept
	}
	return out
}

// decodeHistogram rebuilds a histogram from its wire cells.
func decodeHistogram(cells []directory.HistCell) (*histogram.Histogram, error) {
	h := &histogram.Histogram{Cells: make([]histogram.Cell, len(cells))}
	for i, wc := range cells {
		cell := histogram.Cell{Lo: wc.Lo, Hi: wc.Hi, Count: wc.Count}
		if len(wc.Synopsis) > 0 {
			set, err := synopsis.Unmarshal(wc.Synopsis)
			if err != nil {
				return nil, err
			}
			cell.Synopsis = set
		}
		h.Cells[i] = cell
	}
	return h, nil
}

// selfCandidate builds the initiator's reference seed from its local
// per-term synopses (Section 5.1's alternative to executing the query
// locally first; equivalent for novelty purposes and cheaper).
// The candidate is the working set's: its maps are reused per search.
func (p *Peer) selfCandidate(s *searchScratch, terms []string) *core.Candidate {
	snap := p.snap.Load()
	if snap == nil {
		return nil
	}
	c := &s.self
	*c = core.Candidate{
		Peer:              core.PeerID(p.name),
		TermSynopses:      clearedMap(c.TermSynopses, len(terms)),
		TermCardinalities: clearedMap(c.TermCardinalities, len(terms)),
	}
	scfg := p.cfg.synopsisConfig(p.cfg.bits())
	for _, t := range terms {
		// Memoized per index generation: routing treats candidate
		// synopses as read-only, so every query sharing a term shares
		// one Set instead of rebuilding MIPs per query.
		set, card := snap.selfSynopsis(t, scfg)
		if set == nil {
			continue
		}
		c.TermSynopses[t] = set
		c.TermCardinalities[t] = card
	}
	if len(c.TermSynopses) == 0 {
		return nil
	}
	return c
}
