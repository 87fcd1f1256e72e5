// Package minerva is the peer engine tying the substrates together into
// the prototype P2P Web search engine of the paper's Section 4: every
// peer runs a local IR index, a Chord node, a slice of the distributed
// directory, and the query-side machinery (PeerList retrieval, IQN or
// baseline routing, query forwarding, result merging).
//
// Overload hardening is opt-in per Config: Breakers arms per-link
// circuit breakers on the peer's outgoing calls, HedgeDelay hedges
// directory reads, AdmissionLimit sheds excess inbound load with
// fast rejects, and SearchOptions.Budget threads an end-to-end deadline
// through directory fetch and query fan-out — an exhausted budget
// degrades to a merged partial top-k with every abandoned peer named in
// SearchResult.Errors. The Maintainer's periodic round also runs an
// anti-entropy sweep (AntiEntropySweep) that digest-compares and
// repairs directory replicas without republishing.
package minerva

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iqn/internal/adapt"
	"iqn/internal/chord"
	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/histogram"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// MethodQuery names the query-forwarding RPC every peer serves
// (transport.Query): one score-descending chunk of the peer's local
// result list per call, addressed by a (generation, offset) cursor.
// Exported so fault-injection harnesses (internal/sim) can scope rules
// to the query path (e.g. "crash the peer on its Nth incoming query
// call").
const MethodQuery = "peer.query"

// staleCursorMsg is the error text the query handler returns when a
// cursor's generation no longer matches the live index snapshot; the
// initiator matches on it to restart the stream from offset 0 instead
// of failing the peer.
const staleCursorMsg = "minerva: stale cursor"

// Config is the network-wide peer configuration. All peers must agree on
// SynopsisSeed (the shared MIPs permutation sequence); everything else
// may vary per peer — MIPs tolerate heterogeneous lengths.
type Config struct {
	// SynopsisKind selects the synopsis family peers publish
	// (default MIPs, the paper's synopsis of choice).
	SynopsisKind synopsis.Kind
	// SynopsisBits is the per-term synopsis budget in bits (default 2048).
	SynopsisBits int
	// SynopsisSeed is the network-wide MIPs permutation seed.
	SynopsisSeed uint64
	// Replicas is the directory replication factor (default 1).
	Replicas int
	// HistogramCells > 0 publishes Section 7.1 score histograms with
	// that many cells per term.
	HistogramCells int
	// TotalBudgetBits > 0 activates Section 7.2 adaptive synopsis
	// lengths: the peer splits this total budget over its terms by
	// BudgetPolicy instead of giving every term SynopsisBits.
	TotalBudgetBits int
	// BudgetPolicy selects the benefit notion for adaptive lengths.
	BudgetPolicy core.BenefitPolicy
	// Scoring selects the local relevance model (TF·IDF default, BM25
	// optional); it only affects local ranking, not the routing logic.
	Scoring ir.Scoring
	// DirectoryRetry is the retry/backoff policy for the peer's directory
	// operations (publishing posts, fetching PeerLists). The zero value
	// keeps the pre-retry single-attempt behavior.
	DirectoryRetry transport.RetryPolicy
	// Breakers, non-nil, arms per-link circuit breakers on the peer's
	// outgoing calls (query forwarding and, through the shared caller,
	// directory traffic): links that keep failing are fast-rejected and
	// probed on the breaker's deterministic schedule instead of being
	// hammered.
	Breakers *transport.BreakerConfig
	// HedgeDelay enables hedged directory reads (directory.Client): when
	// a replica has not answered a PeerList fetch within this delay, the
	// next replica is raced in and the first success wins.
	HedgeDelay time.Duration
	// DirectoryCacheTTL > 0 arms the peer's directory read cache: fetched
	// PeerLists are served locally for up to this long (bounded staleness
	// ≤ TTL), validated against post epochs, invalidated by the peer's
	// own republishes/prunes/repairs and by writes landing on the peer's
	// directory fraction, with concurrent fetches of one term coalesced
	// onto a single RPC and synopses decoded once per epoch instead of
	// once per query. Zero (the default) disables caching — every search
	// reads the directory.
	DirectoryCacheTTL time.Duration
	// SearchCoalescing collapses identical in-flight searches onto one
	// execution: when a query with the same terms and result-affecting
	// options is already running on this peer, duplicates wait for its
	// result instead of re-fetching the directory and re-fanning out —
	// the whole-search extension of the directory cache's per-term
	// singleflight. Duplicates that arrive after a search finished
	// still execute (coalescing is not caching; bounded staleness is
	// the cache's job). Off by default.
	SearchCoalescing bool
	// AdmissionLimit > 0 arms server-side admission control on the
	// peer's mux: at most this many RPC handlers run concurrently, at
	// most AdmissionQueue callers wait, and everything beyond is shed
	// with a fast retryable ErrOverloaded instead of queuing unboundedly.
	AdmissionLimit int
	// AdmissionQueue bounds the admission wait queue (only meaningful
	// with AdmissionLimit > 0).
	AdmissionQueue int
	// TopKChunkSize is the default entries-per-chunk of query forwarding
	// under SearchOptions.TopKStreaming; per-query SearchOptions.ChunkSize
	// overrides it. Default 16.
	TopKChunkSize int
	// Adaptive, non-nil, arms adaptive routing from the query log
	// (internal/adapt): every finished search records which answering
	// peers supplied merged top-k entries, keyed by normalized term set,
	// and subsequent searches blend a historical-contribution prior into
	// Select-Best-Peer (core.Options.Prior) — repeated or similar
	// queries route toward peers that actually delivered before. The
	// same log powers the result-vs-synopsis divergence detector: peers
	// whose published MaxScore/synopsis claims keep diverging from what
	// they deliver are downweighted through the same prior channel.
	// Routing stays deterministic for a deterministic workload — the
	// prior is a pure function of the searches recorded so far. Nil (the
	// default) keeps cold IQN: synopses only, no memory between queries.
	Adaptive *adapt.Config
	// Metrics, non-nil, arms telemetry: the peer's network is wrapped
	// with transport.Instrument (calls, errors, bytes, latency), the
	// directory client counts fetches/retries/repairs, breakers count
	// transitions, and the search path counts queries/reroutes/budget
	// expiries. Peers sharing one Config share the registry, so a
	// network-wide run aggregates into one snapshot. Nil (the default)
	// disarms telemetry at zero cost — the call path is the raw network.
	Metrics *telemetry.Registry
}

func (c Config) kind() synopsis.Kind {
	if c.SynopsisKind == 0 {
		return synopsis.KindMIPs
	}
	return c.SynopsisKind
}

func (c Config) bits() int {
	if c.SynopsisBits <= 0 {
		return 2048
	}
	return c.SynopsisBits
}

func (c Config) synopsisConfig(bits int) synopsis.Config {
	return synopsis.Config{Kind: c.kind(), Bits: bits, Seed: c.SynopsisSeed}
}

func (c Config) topKChunkSize() int {
	if c.TopKChunkSize <= 0 {
		return 16
	}
	return c.TopKChunkSize
}

// Peer is one MINERVA node.
type Peer struct {
	name     string
	cfg      Config
	node     *chord.Node
	dir      *directory.Client
	svc      *directory.Service
	breakers *transport.Breakers // nil unless Config.Breakers set

	// snap is the peer's current index generation. Queries, publishes,
	// and Maintainer rounds all read through one atomic pointer load —
	// never a lock — so a live re-index (IndexCollection, LoadDiskIndex)
	// swaps the whole generation in one store without ever blocking
	// query traffic. Readers that loaded the old snapshot keep a fully
	// consistent view (index + derived posts + self-synopses all from
	// the same generation) until they finish.
	snap atomic.Pointer[indexSnapshot]

	// adaptive is the query-log store behind Config.Adaptive (nil when
	// adaptive routing is off).
	adaptive *adapt.Store

	// searchMu guards searchFlights (whole-search coalescing).
	searchMu      sync.Mutex
	searchFlights map[flightKey]*searchFlight

	// scratch pools the per-search working sets (searchScratch).
	scratch sync.Pool
	// fan runs the pulls of forwarding rounds (see fanout).
	fan fanout
	// selfSource names the initiator's own result list in a search's
	// top-k coordinator.
	selfSource string

	queriesServed atomic.Int64
}

// indexSnapshot is one immutable generation of the peer's local index
// together with everything derived from it that the hot path reads: the
// directory posts the Maintainer republishes each round and the per-term
// self-synopses seeding IQN's reference state. Both are memoized lazily
// inside the generation — computed once, shared by every concurrent
// reader, and discarded wholesale when the index is replaced (derived
// state can never outlive or mix with its source index).
type indexSnapshot struct {
	// index is either the in-memory *ir.Index or the out-of-core
	// *ir.DiskIndex built by the buildix pipeline — the whole peer
	// engine runs against the Searcher interface, so which one backs a
	// generation is invisible to queries, publishes, and streams.
	index ir.Searcher

	// gen is the snapshot's process-unique generation identity. Chunk
	// stream cursors are offsets into a score-sorted result list, so
	// they are only meaningful within one generation: the chunk handler
	// rejects cursors stamped with any other generation (stale cursor)
	// and the client restarts the stream.
	gen uint64

	// postsOnce memoizes BuildPosts: synopsis construction over every
	// term is the expensive half of a publish round, and the posts are a
	// pure function of the index + config, so one computation serves all
	// republish epochs of this generation.
	postsOnce sync.Once
	posts     []directory.Post
	postsErr  error

	// selfMu guards the lazily grown self-synopsis memo. Entries are
	// read-only once stored (core routing never mutates a candidate's
	// synopsis), so queries share them freely.
	selfMu   sync.Mutex
	selfSyn  map[string]synopsis.Set
	selfCard map[string]float64

	// queryMu guards the query handler's memo of result lists longer
	// than one chunk: a stream issues an RPC per chunk, and without the
	// memo each would re-execute the local query. Entries are read-only
	// once stored (the handler only slices them), so concurrent streams
	// share them.
	queryMu   sync.Mutex
	queryMemo map[string][]ir.Result
}

// snapshotGen issues index snapshot generations. Process-wide rather
// than per-peer so a cursor can never validate against a different
// peer's snapshot by coincidence; starting from 1 keeps generation 0
// free as the client's "no generation pinned yet" sentinel.
var snapshotGen atomic.Uint64

func newIndexSnapshot(idx ir.Searcher) *indexSnapshot {
	return &indexSnapshot{
		index:     idx,
		gen:       snapshotGen.Add(1),
		selfSyn:   map[string]synopsis.Set{},
		selfCard:  map[string]float64{},
		queryMemo: map[string][]ir.Result{},
	}
}

// maxQueryMemo bounds the per-snapshot query memo; at the cap the memo
// resets wholesale (later streams simply re-execute — correctness is
// unaffected, the memo is purely a work saver).
const maxQueryMemo = 64

// queryResults returns the snapshot's full local result list for one
// query shape — the list every chunk of a stream slices. The search
// runs outside queryMu, so streams never queue behind each other's
// index reads (concurrent first chunks of one shape may both search;
// the lists are identical). Only a list its first chunk does not
// exhaust is memoized: a one-chunk pull (size ≥ k) has nothing to
// resume and never touches the memo.
func (s *indexSnapshot) queryResults(terms []string, k int, conjunctive bool, size int) []ir.Result {
	mode := ir.Disjunctive
	if conjunctive {
		mode = ir.Conjunctive
	}
	if size >= k {
		return s.index.Search(terms, k, mode)
	}
	// The key is built in a byte buffer and looked up as string(key),
	// which does not copy; only storing a new list allocates the key.
	var keyBuf [64]byte
	key := queryKey(keyBuf[:0], terms, k, conjunctive)
	s.queryMu.Lock()
	rs, ok := s.queryMemo[string(key)]
	s.queryMu.Unlock()
	if ok {
		return rs
	}
	rs = s.index.Search(terms, k, mode)
	if len(rs) > size {
		s.queryMu.Lock()
		if len(s.queryMemo) >= maxQueryMemo {
			s.queryMemo = map[string][]ir.Result{}
		}
		s.queryMemo[string(key)] = rs
		s.queryMu.Unlock()
	}
	return rs
}

// queryKey appends the memo key of one query shape to buf: k, the mode
// and the length-prefixed terms, so distinct shapes never collide.
func queryKey(buf []byte, terms []string, k int, conjunctive bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(k))
	if conjunctive {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, t := range terms {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return buf
}

// selfSynopsis returns the memoized synopsis and cardinality of one local
// term (nil set when the term has no local postings).
func (s *indexSnapshot) selfSynopsis(term string, scfg synopsis.Config) (synopsis.Set, float64) {
	s.selfMu.Lock()
	defer s.selfMu.Unlock()
	if set, ok := s.selfSyn[term]; ok {
		return set, s.selfCard[term]
	}
	ids := s.index.DocIDs(term)
	var set synopsis.Set
	if len(ids) > 0 {
		set = scfg.FromIDs(ids)
	}
	s.selfSyn[term] = set
	s.selfCard[term] = float64(len(ids))
	return set, float64(len(ids))
}

// NewPeer creates a peer serving at addr (its name) on the network. The
// peer initially forms a ring of itself; call JoinRing to enter an
// existing network.
func NewPeer(addr string, net transport.Network, cfg Config) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Instrumenting beneath the Chord node means ring maintenance,
	// directory traffic, and query forwarding are all counted; with a
	// nil registry the wrapper IS the raw network (zero overhead).
	net = transport.Instrument(net, cfg.Metrics)
	node, err := chord.New(addr, net, chord.Config{Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	p := &Peer{
		name: addr,
		cfg:  cfg,
		node: node,
		svc:  directory.NewService(node),
		dir:  directory.NewClient(node, replicas),
	}
	p.scratch.New = func() any { return new(searchScratch) }
	p.fan.jobs = make(chan pullJob)
	p.selfSource = "self:" + addr
	if cfg.Adaptive != nil {
		store, err := adapt.NewStore(*cfg.Adaptive, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		p.adaptive = store
	}
	p.dir.Retry = cfg.DirectoryRetry
	p.dir.HedgeDelay = cfg.HedgeDelay
	p.dir.Metrics = cfg.Metrics
	if cfg.DirectoryCacheTTL > 0 {
		p.dir.EnableCache(cfg.DirectoryCacheTTL)
		// Writes arriving on this peer's directory fraction over RPC
		// (republish, prune, anti-entropy repair) must not leave the
		// colocated read cache serving the replaced posts.
		p.svc.SetInvalidation(func(term string, floor int64) {
			p.dir.InvalidateCachedTerm(term)
			p.dir.ObserveFloor(floor)
		})
	}
	if cfg.Breakers != nil {
		p.breakers = transport.NewBreakers(*cfg.Breakers)
		p.breakers.SetMetrics(cfg.Metrics)
		// Ring maintenance shares the breaker-aware path: churn-era probe
		// storms against dead links are fast-rejected instead of hammered,
		// and stabilization failures feed the same per-link state as
		// query traffic.
		node.SetCaller(p.caller())
	}
	if cfg.AdmissionLimit > 0 {
		node.Mux().SetLimit(cfg.AdmissionLimit, cfg.AdmissionQueue)
	}
	served := cfg.Metrics.Counter("peer.queries_served")
	chunksServed := cfg.Metrics.Counter("peer.chunks_served")
	transport.Query.Handle(node.Mux(), func(q transport.ChunkRequest) (transport.ResultChunk, error) {
		chunksServed.Inc()
		s := p.snap.Load()
		if s == nil {
			// No index: an exhausted stream, not an error — mirrors
			// LocalSearch returning nil.
			return transport.ResultChunk{Done: true}, nil
		}
		if q.Gen != 0 && q.Gen != s.gen {
			return transport.ResultChunk{}, fmt.Errorf("%s: generation %d replaced by %d", staleCursorMsg, q.Gen, s.gen)
		}
		if q.Offset == 0 {
			// One stream = one served query, however many chunks it
			// pulls.
			p.queriesServed.Add(1)
			served.Inc()
		}
		if q.K <= 0 {
			q.K = 50
		}
		size := q.Size
		if size <= 0 {
			size = cfg.topKChunkSize()
		}
		results := s.queryResults(q.Terms, q.K, q.Conjunctive, size)
		off := q.Offset
		if off > len(results) {
			off = len(results)
		}
		end := off + size
		if end > len(results) {
			end = len(results)
		}
		entries := make([]transport.ScoredEntry, end-off)
		for i, r := range results[off:end] {
			entries[i] = transport.ScoredEntry{Doc: r.DocID, Score: r.Score}
		}
		return transport.ResultChunk{Gen: s.gen, Done: end == len(results), Entries: entries}, nil
	})
	return p, nil
}

// Name returns the peer's name (= transport address).
func (p *Peer) Name() string { return p.name }

// Node exposes the peer's Chord node.
func (p *Peer) Node() *chord.Node { return p.node }

// Directory exposes the peer's directory client.
func (p *Peer) Directory() *directory.Client { return p.dir }

// DirectoryService exposes the peer's stored directory fraction (the
// server side), e.g. for anti-entropy assertions on replica state.
func (p *Peer) DirectoryService() *directory.Service { return p.svc }

// Breakers exposes the peer's circuit-breaker set (nil when disabled) —
// the source of the replayable transition traces chaos tests assert on.
func (p *Peer) Breakers() *transport.Breakers { return p.breakers }

// caller is the peer's outgoing call path: the raw network, wrapped by
// the breaker set when one is armed.
func (p *Peer) caller() transport.Caller {
	return p.breakers.Caller(p.node.Network())
}

// AntiEntropySweep runs one anti-entropy pass over the terms this
// peer's directory fraction stores: each term's replica set is digest-
// compared and divergent replicas are patched to the merged PeerList,
// without any peer republishing. Returns how many terms were checked
// and how many replica patches were pushed.
func (p *Peer) AntiEntropySweep() (terms, repaired int) {
	stored := p.svc.StoredTerms()
	return len(stored), p.dir.AntiEntropy(stored)
}

// CreateRing makes the peer the first node of a new network.
func (p *Peer) CreateRing() { p.node.Create() }

// JoinRing joins the network of an existing peer without any directory
// handoff; JoinLive is the join that also pulls the peer's range.
func (p *Peer) JoinRing(seedAddr string) error { return p.node.Join(seedAddr) }

// JoinLive enters an existing network with the directory handoff
// ordered so lookups never route to a dark range: the peer joins the
// ring (not yet visible — nobody routes to it until its notify lands),
// publishes its own posts at the given epoch while the old ring still
// routes (so they land on the current owners, including the successor
// holding the range the peer is about to take over), pulls its future
// range from the successor-list replicas — own posts riding along —
// and only then stabilizes to become visible. By the time any lookup
// can route to the newcomer, the posts are already here. Publishing
// after the join instead would race ring convergence: until the
// predecessor learns about the newcomer, lookups for the newcomer's
// own arc resolve to the old owner, and posts published through that
// stale view would be stored where post-convergence fetches never
// look. Returns the number of posts acquired.
func (p *Peer) JoinLive(seedAddr string, epoch int64) (int, error) {
	if err := p.node.Join(seedAddr); err != nil {
		return 0, err
	}
	if p.snap.Load() != nil {
		if err := p.PublishPostsEpoch(epoch); err != nil {
			return 0, fmt.Errorf("minerva: publish on join: %w", err)
		}
	}
	acquired := 0
	succ := p.node.Successor()
	if !succ.IsZero() && succ.Addr != p.name {
		sources := []chord.NodeRef{succ}
		if more, err := p.node.SuccessorsOf(succ); err == nil {
			for _, r := range more {
				if !r.IsZero() && r.Addr != p.name && r.Addr != succ.Addr {
					sources = append(sources, r)
				}
			}
		}
		if pred, err := p.node.PredecessorOf(succ); err == nil && !pred.IsZero() {
			rep, err := p.svc.AcquireRangeFrom(pred.ID, sources)
			if err != nil {
				return 0, err
			}
			acquired = rep.Acquired
		}
	}
	// Become visible: the notify inside Stabilize teaches the successor
	// about us; the rest of the ring catches up over its own rounds.
	p.node.Stabilize()
	return acquired, nil
}

// Leave departs gracefully: the peer's own publications are withdrawn
// from the directory (queries stop routing to a peer that is gone), its
// stored directory fraction is pushed to the first live successor
// (acknowledged, with re-publication as the last resort), the ring is
// spliced over the gap via leave notices, and only then does the peer
// stop serving. The handoff report says where the fraction landed; the
// error is non-nil only when no replica accepted it (those posts then
// reappear when their origin peers republish).
func (p *Peer) Leave() (directory.HandoffReport, error) {
	if s := p.snap.Load(); s != nil {
		p.dir.Withdraw(p.name, s.index.Terms())
	}
	rep, err := p.dir.PushHandoff(p.svc)
	p.node.Leave()
	p.Close()
	return rep, err
}

// Close removes the peer from the network and stops its fan-out
// workers.
func (p *Peer) Close() {
	p.node.Close()
	p.fan.close()
}

// QueriesServed returns how many forwarded queries this peer has
// answered — the per-peer load the paper's Section 8.2 worries about
// ("response times are a highly superlinear function of load").
func (p *Peer) QueriesServed() int64 { return p.queriesServed.Load() }

// Reachable reports whether the peer answers RPCs through the transport
// under its own address — false once it has crashed, closed, or been
// partitioned off.
func (p *Peer) Reachable() bool {
	return p.node.PingAddr(p.name)
}

// IndexCollection (re)builds the peer's local index over a document
// collection.
func (p *Peer) IndexCollection(docs []dataset.Document) {
	idx := ir.NewIndex()
	idx.SetScoring(p.cfg.Scoring)
	for _, d := range docs {
		idx.AddDocument(d.ID, d.Terms)
	}
	idx.Finalize()
	p.snap.Store(newIndexSnapshot(idx))
}

// Index returns the peer's local index as the scoring-neutral Searcher
// view (nil before IndexCollection/LoadDiskIndex). The backing store may
// be in-memory or the out-of-core disk reader.
func (p *Peer) Index() ir.Searcher {
	if s := p.snap.Load(); s != nil {
		return s.index
	}
	return nil
}

// LoadDiskIndex mounts an index built by the out-of-core pipeline
// (internal/buildix) or saved by SaveIndex without materializing it
// (publish afterwards to re-enter the directories): postings stay on disk
// and are read per term. The snapshot swap is atomic, exactly like
// IndexCollection — in-flight queries finish on the old generation.
// When a synopsis side file accompanies the index and its scheme
// matches the peer's configuration, publish rounds reuse the
// precomputed synopses instead of rebuilding them.
func (p *Peer) LoadDiskIndex(path string) error {
	d, err := ir.OpenDisk(path)
	if err != nil {
		return err
	}
	if d.Scoring() != p.cfg.Scoring {
		d.Close()
		return fmt.Errorf("minerva: disk index %s scored with %v, peer configured for %v",
			path, d.Scoring(), p.cfg.Scoring)
	}
	p.snap.Store(newIndexSnapshot(d))
	return nil
}

// LocalSearch executes a query against the local index only.
func (p *Peer) LocalSearch(terms []string, k int, conjunctive bool) []ir.Result {
	idx := p.Index()
	if idx == nil {
		return nil
	}
	mode := ir.Disjunctive
	if conjunctive {
		mode = ir.Conjunctive
	}
	return idx.Search(terms, k, mode)
}

// BuildPosts assembles the peer's per-term directory publications: for
// every term of the local index, the IR statistics of Section 4 plus the
// term's synopsis (and histogram cells when configured). With
// TotalBudgetBits set, synopsis lengths follow the Section 7.2 benefit
// allocation; terms priced out of the budget are published without a
// synopsis (statistics only).
func (p *Peer) BuildPosts() ([]directory.Post, error) {
	s := p.snap.Load()
	if s == nil {
		return nil, fmt.Errorf("minerva: %s has no index", p.name)
	}
	s.postsOnce.Do(func() {
		s.posts, s.postsErr = buildPosts(s.index, p.cfg, p.name)
	})
	if s.postsErr != nil {
		return nil, s.postsErr
	}
	// Callers (PublishPostsEpoch) stamp epochs on the returned slice, so
	// the memo hands out a fresh header copy each time — the Post values
	// themselves are shared read-only.
	out := make([]directory.Post, len(s.posts))
	copy(out, s.posts)
	return out, nil
}

// prebuiltSynopses is implemented by index backends (ir.DiskIndex with
// a synopsis side file) that carry synopses precomputed at build time.
type prebuiltSynopses interface {
	PrebuiltSynopsis(term string) ([]byte, bool)
	SynopsisScheme() (kind, bits int, seed uint64, ok bool)
}

// buildPosts is the pure computation behind BuildPosts, memoized per
// index generation by indexSnapshot.
func buildPosts(idx ir.Searcher, cfg Config, name string) ([]directory.Post, error) {
	terms := idx.Terms()
	sort.Strings(terms)
	// A disk index built with a matching synopsis scheme lets publish
	// rounds skip per-term synopsis construction entirely — the bytes
	// were computed once by the build pipeline. Adaptive budgets vary
	// bits per term, so they always rebuild.
	var pre prebuiltSynopses
	if p, ok := idx.(prebuiltSynopses); ok && cfg.TotalBudgetBits == 0 {
		if kind, bits, seed, ok := p.SynopsisScheme(); ok &&
			kind == int(cfg.kind()) && bits == cfg.bits() && seed == cfg.SynopsisSeed {
			pre = p
		}
	}
	var budget map[string]int
	if cfg.TotalBudgetBits > 0 {
		benefits := make(map[string]float64, len(terms))
		for _, t := range terms {
			benefits[t] = core.TermBenefit(idx.Postings(t), cfg.BudgetPolicy, 0)
		}
		granularity := 32
		if cfg.kind() == synopsis.KindHashSketch {
			granularity = 64
		}
		budget = core.AllocateBudget(benefits, cfg.TotalBudgetBits, granularity, granularity)
	}
	posts := make([]directory.Post, 0, len(terms))
	for _, t := range terms {
		post := directory.Post{
			Peer:          name,
			PeerAddr:      name,
			Term:          t,
			ListLength:    idx.DocFreq(t),
			MaxScore:      idx.MaxScore(t),
			AvgScore:      idx.AvgScore(t),
			TermSpaceSize: idx.TermSpaceSize(),
			NumDocs:       idx.NumDocs(),
		}
		bits := cfg.bits()
		if budget != nil {
			bits = budget[t] // 0 when priced out
		}
		if bits > 0 {
			scfg := cfg.synopsisConfig(bits)
			if pre != nil {
				if data, ok := pre.PrebuiltSynopsis(t); ok {
					post.Synopsis = data
				}
			}
			if post.Synopsis == nil {
				data, err := scfg.FromIDs(idx.DocIDs(t)).MarshalBinary()
				if err != nil {
					return nil, fmt.Errorf("minerva: synopsis for %q: %w", t, err)
				}
				post.Synopsis = data
			}
			if cells := cfg.HistogramCells; cells > 0 {
				h := histogram.Build(idx.Postings(t), cells, scfg)
				post.Histogram = make([]directory.HistCell, len(h.Cells))
				for i, c := range h.Cells {
					cd, err := c.Synopsis.MarshalBinary()
					if err != nil {
						return nil, err
					}
					post.Histogram[i] = directory.HistCell{Lo: c.Lo, Hi: c.Hi, Count: c.Count, Synopsis: cd}
				}
			}
		}
		posts = append(posts, post)
	}
	return posts, nil
}

// PublishPosts builds and publishes the peer's directory posts at epoch
// zero (the single-round default).
func (p *Peer) PublishPosts() error { return p.PublishPostsEpoch(0) }

// PublishPostsEpoch publishes the peer's posts stamped with a logical
// publication round. Periodic republication at increasing epochs plus
// directory pruning (directory.Client.PruneBelow) ages out the posts of
// crashed peers.
func (p *Peer) PublishPostsEpoch(epoch int64) error {
	posts, err := p.BuildPosts()
	if err != nil {
		return err
	}
	for i := range posts {
		posts[i].Epoch = epoch
	}
	_, err = p.dir.Publish(posts)
	return err
}
