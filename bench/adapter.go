package main

// adapter.go is the only file of the benchmark that names an identifier
// of the system under test. Every minerva.Config and SearchOptions is
// built here, every layer probe calls its exported function here, and the
// rest of the benchmark sees plain Go values. A change to the system's
// API therefore needs a follow-up in this file alone.

import (
	"fmt"
	"io"
	"math/rand"
	gonet "net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"iqn/internal/buildix"
	"iqn/internal/core"
	"iqn/internal/cori"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// synopsisBits is the per-term synopsis budget every peer publishes with;
// the probes rebuild the initiator's own synopses with the same scheme.
const synopsisBits = 2048

// query is one pool entry.
type query struct {
	Terms       []string
	Conjunctive bool
}

// inputs is everything generated from the seed: the program under test
// sees the collections and the queries, never the seed.
type inputs struct {
	seed      int64
	cols      []dataset.Collection
	pool      []query
	draws     []int
	reference *ir.Index
}

// generateInputs builds the corpus, its sliding-window split, the query
// pool, the Zipf draw sequence of one pass, and the centralized reference
// index that recall is measured against.
func generateInputs(w workload, seed int64) *inputs {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: w.CorpusDocs, Seed: seed})
	in := &inputs{
		seed: seed,
		cols: dataset.AssignSlidingWindow(corpus, w.Fragments, w.Window, w.Offset),
	}
	for i, q := range dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: w.Pool, Seed: seed}) {
		in.pool = append(in.pool, query{
			Terms:       q.Terms,
			Conjunctive: w.ConjunctiveEvery > 0 && i%w.ConjunctiveEvery == w.ConjunctiveEvery-1,
		})
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed+13)), zipfS, zipfV, uint64(len(in.pool)-1))
	in.draws = make([]int, w.draws())
	for i := range in.draws {
		in.draws[i] = int(zipf.Uint64())
	}
	in.reference = ir.NewIndex()
	for _, d := range corpus.Docs {
		in.reference.AddDocument(d.ID, d.Terms)
	}
	in.reference.Finalize()
	return in
}

func searchMode(conjunctive bool) ir.Mode {
	if conjunctive {
		return ir.Conjunctive
	}
	return ir.Disjunctive
}

// recall is the relative recall of one merged result against the
// centralized top-k.
func (in *inputs) recall(q query, r *searchResult, k int) float64 {
	return ir.RelativeRecall(r.Results, in.reference.Search(q.Terms, k, searchMode(q.Conjunctive)))
}

// searchResult is the system's search outcome; the functions below are
// the only way the rest of the benchmark reads it.
type searchResult = minerva.SearchResult

func resultPeers(r *searchResult) int    { return len(r.PerPeer) }
func resultErrors(r *searchResult) int   { return len(r.Errors) }
func resultReroutes(r *searchResult) int { return len(r.Rerouted) }
func resultLen(r *searchResult) int      { return len(r.Results) }
func resultAt(r *searchResult, i int) (doc uint64, score float64) {
	return r.Results[i].DocID, r.Results[i].Score
}

// peerNet is the benchmark's transport wrapper, handed to every peer as
// its outgoing network so the recorder knows who is calling.
type peerNet struct {
	inner transport.Network
	c     *caller
}

func (p *peerNet) Call(addr, method string, req []byte) ([]byte, error) {
	if !p.c.rec.tracing.Load() {
		resp, err := p.inner.Call(addr, method, req)
		p.c.rec.count(len(req) + len(resp))
		return resp, err
	}
	start := time.Now()
	resp, err := p.inner.Call(addr, method, req)
	p.c.rpc(method, start, time.Now(), len(req), len(resp), err != nil)
	p.c.rec.count(len(req) + len(resp))
	return resp, err
}

func (p *peerNet) Register(addr string, mux *transport.Mux) (func(), error) {
	return p.inner.Register(addr, mux)
}

// setupStats times the phases of one network set-up.
type setupStats struct {
	SetupS      float64
	IndexS      float64
	Docs        int
	BuildPostsS float64
	PublishS    float64
	Posts       int
	// Out-of-core build only.
	Runs, MergePasses    int
	IndexBytes, SynBytes int64
	Terms                int
}

// network is one deployed workload: the whole MINERVA network in this
// process, every peer calling out through a peerNet.
type network struct {
	w       workload
	net     *minerva.Network
	base    transport.Network
	tcp     *transport.TCP
	rec     *recorder
	callers []*caller
	reg     *telemetry.Registry
	opts    minerva.SearchOptions
	scfg    synopsis.Config
	setup   setupStats
	posts   []int // posts published per peer

	echoAddr string
	echoStop func()
	workDir  string
	self     []map[string]selfSynopsis // per-client memo of the initiator's own synopses
}

type selfSynopsis struct {
	set  synopsis.Set
	card float64
}

const echoMethod = "bench.echo"

// reserveAddrs picks n free loopback addresses. Peers address each other
// by their listen address, so it has to be known before the peer exists.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		// Held until all n are picked, so that the kernel hands out n
		// different ports.
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// buildNetwork deploys the workload and times it. The ring is built by
// minerva.BuildNetworkEndpoints over empty collections; indexing, post
// construction and publishing then run peer by peer through the exported
// Peer methods, which is the same work in the same order but lets each
// phase be timed from outside. traced arms a telemetry registry.
func buildNetwork(w workload, in *inputs, traced bool, scratch string) (*network, error) {
	n := &network{w: w, rec: newRecorder()}
	if traced {
		n.reg = telemetry.NewRegistry()
	}
	start := time.Now()
	names := make([]string, len(in.cols))
	switch w.Transport {
	case "tcp":
		addrs, err := reserveAddrs(len(names) + 1)
		if err != nil {
			return nil, err
		}
		copy(names, addrs)
		n.echoAddr = addrs[len(names)]
		n.tcp = transport.NewTCP()
		n.base = n.tcp
	case "inmem":
		for i, c := range in.cols {
			names[i] = c.Name
		}
		n.echoAddr = "bench-echo"
		n.base = transport.NewInMem()
	default:
		return nil, fmt.Errorf("unknown transport %q", w.Transport)
	}
	cfg := minerva.Config{
		SynopsisKind:     synopsis.KindMIPs,
		SynopsisBits:     synopsisBits,
		SynopsisSeed:     uint64(in.seed) + 99,
		SearchCoalescing: w.Coalescing,
		TopKChunkSize:    chunkLen,
		Metrics:          n.reg,
	}
	if w.Cache {
		cfg.DirectoryCacheTTL = time.Hour
	}
	n.scfg = synopsis.Config{Kind: cfg.SynopsisKind, Bits: cfg.SynopsisBits, Seed: cfg.SynopsisSeed}
	n.opts = minerva.SearchOptions{
		K:             w.K,
		MergeK:        w.K,
		MaxPeers:      maxPeers,
		TopKStreaming: w.Streaming,
		ChunkSize:     chunkLen,
	}
	empty := make([]dataset.Collection, len(names))
	for i, name := range names {
		empty[i].Name = name
	}
	byName := map[string]*caller{}
	netFor := func(name string) transport.Network {
		c := n.rec.caller(name)
		byName[name] = c
		return &peerNet{inner: n.base, c: c}
	}
	var err error
	if n.net, err = minerva.BuildNetworkEndpoints(n.base, netFor, nil, empty, cfg); err != nil {
		return nil, err
	}
	for _, p := range n.net.Peers {
		n.callers = append(n.callers, byName[p.Name()])
	}
	n.self = make([]map[string]selfSynopsis, len(n.net.Peers))

	t := time.Now()
	if w.Disk {
		n.workDir, err = os.MkdirTemp(scratch, "work-")
		if err != nil {
			n.close()
			return nil, err
		}
	}
	for i, p := range n.net.Peers {
		if w.Disk {
			err = n.mountDiskIndex(i, in.cols[i].Docs)
		} else {
			p.IndexCollection(in.cols[i].Docs)
		}
		if err != nil {
			n.close()
			return nil, err
		}
		n.setup.Docs += len(in.cols[i].Docs)
	}
	n.setup.IndexS = time.Since(t).Seconds()

	t = time.Now()
	n.posts = make([]int, len(n.net.Peers))
	for i, p := range n.net.Peers {
		posts, err := p.BuildPosts()
		if err != nil {
			n.close()
			return nil, err
		}
		n.posts[i] = len(posts)
		n.setup.Posts += len(posts)
	}
	n.setup.BuildPostsS = time.Since(t).Seconds()

	t = time.Now()
	for i := range n.net.Peers {
		if err := n.publish(i, 0); err != nil {
			n.close()
			return nil, err
		}
	}
	n.setup.PublishS = time.Since(t).Seconds()
	n.setup.SetupS = time.Since(start).Seconds()

	mux := transport.NewMux()
	mux.Handle(echoMethod, func(req []byte) ([]byte, error) { return req, nil })
	if n.echoStop, err = n.base.Register(n.echoAddr, mux); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// mountDiskIndex builds peer i's index with the out-of-core pipeline
// (16 MiB spill budget, MIPs side file) and mounts it from disk.
func (n *network) mountDiskIndex(i int, docs []dataset.Document) error {
	next := 0
	scfg := n.scfg
	res, err := buildix.Build(buildix.Config{
		Dir:       filepath.Join(n.workDir, fmt.Sprintf("peer%02d", i)),
		MemBudget: 16 << 20,
		Synopsis:  &scfg,
	}, func() (buildix.Doc, bool) {
		if next >= len(docs) {
			return buildix.Doc{}, false
		}
		d := docs[next]
		next++
		return buildix.Doc{ID: d.ID, Terms: d.Terms}, true
	})
	if err != nil {
		return err
	}
	n.setup.Runs += res.Runs
	n.setup.MergePasses += res.MergePasses
	if st, err := os.Stat(res.IndexPath); err == nil {
		n.setup.IndexBytes += st.Size()
	}
	if st, err := os.Stat(res.IndexPath + ".syn"); err == nil {
		n.setup.SynBytes += st.Size()
	}
	p := n.net.Peers[i]
	if err := p.LoadDiskIndex(res.IndexPath); err != nil {
		return err
	}
	n.setup.Terms += p.Index().TermSpaceSize()
	return nil
}

// close stops every peer and removes what the set-up left on disk.
func (n *network) close() {
	if n.echoStop != nil {
		n.echoStop()
	}
	if n.net != nil {
		for _, p := range n.net.Peers {
			if c, ok := p.Index().(io.Closer); ok {
				c.Close()
			}
		}
		n.net.Close()
	}
	if n.tcp != nil {
		n.tcp.CloseIdle()
	}
	if n.workDir != "" {
		os.RemoveAll(n.workDir)
	}
}

// search runs one distributed search from the client's pinned initiator.
// pull forces pull forwarding on a streaming workload (the verification
// pass compares the two).
func (n *network) search(client int, q query, pull bool) (*searchResult, error) {
	return n.searchAs("search", client, q, pull)
}

// searchAs is search under a root span of the given name.
func (n *network) searchAs(root string, client int, q query, pull bool) (*searchResult, error) {
	opts := n.opts
	opts.Conjunctive = q.Conjunctive
	if pull {
		opts.TopKStreaming = false
	}
	end := n.callers[client].begin(root)
	r, err := n.net.Peers[client].Search(q.Terms, opts)
	end()
	return r, err
}

// publish republishes one peer's posts at the given epoch.
func (n *network) publish(peer int, epoch int64) error {
	end := n.callers[peer].begin("publish")
	err := n.net.Peers[peer].PublishPostsEpoch(epoch)
	end()
	return err
}

// prune drops every directory post older than epoch, from peer 0.
func (n *network) prune(epoch int64) { n.net.Peers[0].Directory().PruneBelow(epoch) }

// counters returns the telemetry registry's counters (empty untraced).
func (n *network) counters() map[string]int64 { return n.reg.Snapshot().Counters }

func (n *network) resetCounters() { n.reg.Reset() }

// echo measures the bare per-message cost of the workload's transport: a
// 64-byte payload to a mux the benchmark registered, rounds times.
func (n *network) echo(rounds int) (meanUS float64, err error) {
	payload := make([]byte, 64)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := n.base.Call(n.echoAddr, echoMethod, payload); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(rounds), nil
}

// synopsisBuild times Config.FromIDs over up to maxTerms of the client's
// index terms and returns the mean per term.
func (n *network) synopsisBuild(client, maxTerms int) (meanUS float64) {
	idx := n.net.Peers[client].Index()
	terms := append([]string(nil), idx.Terms()...)
	sort.Strings(terms)
	if len(terms) > maxTerms {
		terms = terms[:maxTerms]
	}
	var total time.Duration
	for _, t := range terms {
		ids := idx.DocIDs(t)
		start := time.Now()
		n.scfg.FromIDs(ids)
		total += time.Since(start)
	}
	if len(terms) == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(len(terms))
}

// indexBuild times an in-memory index build of one collection.
func indexBuild(in *inputs) (docsPerS float64) {
	docs := in.cols[0].Docs
	start := time.Now()
	idx := ir.NewIndex()
	for _, d := range docs {
		idx.AddDocument(d.ID, d.Terms)
	}
	idx.Finalize()
	return float64(len(docs)) / time.Since(start).Seconds()
}

// probeAcc accumulates the counts the layer probes see; stage times come
// from the probe.* root spans the probes open in the recorder.
type probeAcc struct {
	Searches, Lookups, Posts, SynBytes int
	Candidates, Pairs                  int
	LocalSearches, Postings, Results   int
	CodecAllocs                        uint64
}

// queryRequest and chunkRequest mirror the wire form of the two
// forwarding RPCs; the probes only encode them, to time the client side.
type queryRequest struct {
	Terms       []string
	K           int
	Conjunctive bool
}

type chunkRequest struct {
	Terms       []string
	K           int
	Conjunctive bool
	Offset      int
	Size        int
	Gen         uint64
}

// probe replays one search stage by stage on the client's initiator,
// through exported functions only. Each stage is a probe.<stage> root
// span, so the RPCs a stage makes are its children and its self time is
// what the initiator itself spent. want is the search the system just ran
// for the same query; the probe fails unless core.Route reproduces its
// plan from the candidates assembled here.
func (n *network) probe(client int, q query, want *searchResult, acc *probeAcc) error {
	p := n.net.Peers[client]
	c := n.callers[client]
	var err error
	stage := func(name string, f func()) {
		end := c.begin("probe." + name)
		f()
		end()
	}
	terms := q.Terms
	acc.Searches++

	stage("lookup", func() {
		for _, t := range terms {
			if _, e := p.Node().Lookup(t); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe lookup: %w", err)
	}
	acc.Lookups += len(terms)

	// The stage the search itself pays: a cached read where the cache is
	// on, a directory read where it is off.
	var lists map[string]directory.PeerList
	fetch := func(name string, opt directory.FetchOptions) {
		stage(name, func() { lists, _, err = p.Directory().FetchAllReportOpts(terms, 0, opt) })
	}
	if n.w.Cache {
		fetch("fetch_cached", directory.FetchOptions{})
	} else {
		fetch("fetch", directory.FetchOptions{Fresh: true})
	}
	if err != nil {
		return fmt.Errorf("probe fetch: %w", err)
	}

	sets := map[string]map[string]synopsis.Set{}
	var flat []synopsis.Set
	stage("synopsis_decode", func() {
		for term, pl := range lists {
			byPeer := make(map[string]synopsis.Set, len(pl))
			for _, post := range pl {
				if len(post.Synopsis) == 0 {
					continue
				}
				set, e := p.Directory().DecodedSynopsis(post)
				if e != nil {
					err = e
					return
				}
				byPeer[post.Peer] = set
				flat = append(flat, set)
			}
			sets[term] = byPeer
		}
	})
	if err != nil {
		return fmt.Errorf("probe synopsis decode: %w", err)
	}

	var cands []core.Candidate
	var stats []cori.CollectionStats
	var global cori.GlobalStats
	stage("assemble", func() { cands, stats, global = assemble(p.Name(), terms, lists, sets) })
	acc.Candidates += len(cands)
	stage("cori", func() {
		for i := range stats {
			cori.Score(terms, stats[i], global)
		}
	})
	stage("resemblance", func() {
		for i := 1; i < len(flat); i++ {
			if _, e := flat[i-1].Resemblance(flat[i]); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe resemblance: %w", err)
	}
	if len(flat) > 1 {
		acc.Pairs += len(flat) - 1
	}

	cq := core.Query{Terms: terms}
	if q.Conjunctive {
		cq.Type = core.Conjunctive
	}
	initiator := n.selfCandidate(client, terms)
	var plan core.Plan
	stage("route", func() { plan, err = core.Route(cq, initiator, cands, core.Options{MaxPeers: maxPeers}) })
	if err != nil {
		return fmt.Errorf("probe route: %w", err)
	}
	if !slices.Equal(plan.Peers, want.Plan.Peers) {
		return fmt.Errorf("probe route: plan %v for %v, the search planned %v", plan.Peers, terms, want.Plan.Peers)
	}

	results := make([][]ir.Result, 0, len(plan.Peers)+1)
	stage("local_search", func() {
		for _, id := range plan.Peers {
			results = append(results, n.net.Peer(string(id)).LocalSearch(terms, n.w.K, q.Conjunctive))
		}
	})
	for i, id := range plan.Peers {
		idx := n.net.Peer(string(id)).Index()
		for _, t := range terms {
			acc.Postings += idx.DocFreq(t)
		}
		acc.Results += len(results[i])
		acc.LocalSearches++
	}
	var self []ir.Result
	stage("self_search", func() { self = p.LocalSearch(terms, n.w.K, q.Conjunctive) })

	// The client side of forwarding: encode one request per call, decode
	// what came back. The responses are encoded outside the stage.
	if n.w.Streaming {
		var chunks [][]byte
		for i, id := range plan.Peers {
			pulled := want.PerPeer[id]
			if pulled > len(results[i]) {
				pulled = len(results[i])
			}
			for off := 0; off < pulled; off += chunkLen {
				end := off + chunkLen
				if end > pulled {
					end = pulled
				}
				ch := transport.ResultChunk{Gen: 1, Done: end == len(results[i])}
				for _, r := range results[i][off:end] {
					ch.Entries = append(ch.Entries, transport.ScoredEntry{Doc: r.DocID, Score: r.Score})
				}
				chunks = append(chunks, transport.EncodeChunk(ch))
			}
		}
		stage("forward_codec", func() {
			for _, b := range chunks {
				if _, e := transport.Marshal(chunkRequest{Terms: terms, K: n.w.K, Conjunctive: q.Conjunctive, Size: chunkLen}); e != nil {
					err = e
				}
				if _, e := transport.DecodeChunk(b); e != nil {
					err = e
				}
			}
		})
	} else {
		payloads := make([][]byte, len(results))
		for i := range results {
			if payloads[i], err = transport.Marshal(results[i]); err != nil {
				return err
			}
		}
		stage("forward_codec", func() {
			for _, b := range payloads {
				if _, e := transport.Marshal(queryRequest{Terms: terms, K: n.w.K, Conjunctive: q.Conjunctive}); e != nil {
					err = e
				}
				var rs []ir.Result
				if e := transport.Unmarshal(b, &rs); e != nil {
					err = e
				}
			}
		})
	}
	if err != nil {
		return fmt.Errorf("probe forward codec: %w", err)
	}
	stage("merge", func() { ir.Merge(append(results, self), n.w.K) })

	// Off the search's own path from here on: the codec and the synopsis
	// decoder alone, and the directory read the cache would have saved.
	var mem0, mem1 runtime.MemStats
	encoded := make([][]byte, 0, len(lists))
	runtime.ReadMemStats(&mem0)
	stage("codec_encode", func() {
		for term, pl := range lists {
			b, e := transport.Marshal(map[string]directory.PeerList{term: pl})
			if e != nil {
				err = e
			}
			encoded = append(encoded, b)
		}
	})
	stage("codec_decode", func() {
		for _, b := range encoded {
			var got map[string]directory.PeerList
			if e := transport.Unmarshal(b, &got); e != nil {
				err = e
			}
		}
	})
	runtime.ReadMemStats(&mem1)
	if err != nil {
		return fmt.Errorf("probe codec: %w", err)
	}
	acc.CodecAllocs += mem1.Mallocs - mem0.Mallocs
	stage("synopsis_unmarshal", func() {
		for _, pl := range lists {
			for _, post := range pl {
				if len(post.Synopsis) == 0 {
					continue
				}
				if _, e := synopsis.Unmarshal(post.Synopsis); e != nil {
					err = e
				}
				acc.Posts++
				acc.SynBytes += len(post.Synopsis)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe synopsis unmarshal: %w", err)
	}
	if n.w.Cache {
		fetch("fetch", directory.FetchOptions{Fresh: true})
		if err != nil {
			return fmt.Errorf("probe fresh fetch: %w", err)
		}
		// The fresh read replaced the cached entries and their decoded
		// synopses; decode them again so the next probe starts warm.
		for _, pl := range lists {
			for _, post := range pl {
				if len(post.Synopsis) > 0 {
					if _, err := p.Directory().DecodedSynopsis(post); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// assemble turns fetched PeerLists into routing candidates the way the
// search does: per peer the per-term synopses and cardinalities, and the
// CORI quality from the posted statistics. It also returns the CORI
// inputs so the probe can time cori.Score on its own.
func assemble(self string, terms []string, lists map[string]directory.PeerList, sets map[string]map[string]synopsis.Set) ([]core.Candidate, []cori.CollectionStats, cori.GlobalStats) {
	byPeer := map[string]map[string]directory.Post{}
	g := cori.GlobalStats{CollectionFreq: map[string]int{}}
	var termSpaceSum float64
	var termSpaceN int
	for term, pl := range lists {
		g.CollectionFreq[term] = len(pl)
		for _, post := range pl {
			posts := byPeer[post.Peer]
			if posts == nil {
				posts = map[string]directory.Post{}
				byPeer[post.Peer] = posts
			}
			posts[term] = post
			termSpaceSum += float64(post.TermSpaceSize)
			termSpaceN++
		}
	}
	delete(byPeer, self)
	g.NumPeers = len(byPeer)
	if termSpaceN > 0 {
		g.AvgTermSpaceSize = termSpaceSum / float64(termSpaceN)
	}
	names := make([]string, 0, len(byPeer))
	for name := range byPeer {
		names = append(names, name)
	}
	sort.Strings(names)
	cands := make([]core.Candidate, 0, len(names))
	stats := make([]cori.CollectionStats, 0, len(names))
	for _, name := range names {
		c := core.Candidate{
			Peer:              core.PeerID(name),
			TermSynopses:      map[string]synopsis.Set{},
			TermCardinalities: map[string]float64{},
		}
		st := cori.CollectionStats{DocFreq: map[string]int{}}
		for term, post := range byPeer[name] {
			st.DocFreq[term] = post.ListLength
			st.TermSpaceSize = post.TermSpaceSize
			c.TermCardinalities[term] = float64(post.ListLength)
			if set := sets[term][name]; set != nil {
				c.TermSynopses[term] = set
			}
		}
		c.Quality = cori.Score(terms, st, g)
		cands = append(cands, c)
		stats = append(stats, st)
	}
	return cands, stats, g
}

// selfCandidate is the initiator's reference seed: its own per-term
// synopses, memoized per client as the search memoizes them per index
// generation.
func (n *network) selfCandidate(client int, terms []string) *core.Candidate {
	p := n.net.Peers[client]
	if n.self[client] == nil {
		n.self[client] = map[string]selfSynopsis{}
	}
	c := &core.Candidate{
		Peer:              core.PeerID(p.Name()),
		TermSynopses:      map[string]synopsis.Set{},
		TermCardinalities: map[string]float64{},
	}
	for _, t := range terms {
		s, ok := n.self[client][t]
		if !ok {
			if ids := p.Index().DocIDs(t); len(ids) > 0 {
				s = selfSynopsis{set: n.scfg.FromIDs(ids), card: float64(len(ids))}
			}
			n.self[client][t] = s
		}
		if s.set == nil {
			continue
		}
		c.TermSynopses[t] = s.set
		c.TermCardinalities[t] = s.card
	}
	if len(c.TermSynopses) == 0 {
		return nil
	}
	return c
}
