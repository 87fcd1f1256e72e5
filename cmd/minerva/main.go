// Command minerva boots a MINERVA network in one process and runs a
// query workload through it, printing per-query routing plans, results,
// and recall — the quickest way to watch IQN routing work end to end.
//
// Usage:
//
//	minerva -peers 20 -docs 10000 -query "forest fire"   # ad-hoc query
//	minerva -method cori -maxpeers 5                     # baseline routing
//	minerva -transport tcp                               # real sockets
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

func main() {
	var (
		docs      = flag.Int("docs", 10000, "corpus size")
		frags     = flag.Int("fragments", 40, "fragments for the sliding-window assignment")
		r         = flag.Int("r", 8, "fragments per peer")
		offset    = flag.Int("offset", 2, "sliding-window offset (peers = fragments/offset)")
		kindFlag  = flag.String("synopsis", "mips", "synopsis kind: mips|bloom|hashsketch (or bf|hs)")
		bits      = flag.Int("bits", 2048, "synopsis bits per term")
		hist      = flag.Int("histcells", 0, "score-histogram cells per term (0: plain synopses)")
		methodStr = flag.String("method", "iqn", "routing method: iqn|cori|prior")
		agg       = flag.String("agg", "per-peer", "multi-keyword aggregation: per-peer|per-term")
		maxPeers  = flag.Int("maxpeers", 5, "peers to forward each query to")
		k         = flag.Int("k", 20, "result-list depth per peer")
		conj      = flag.Bool("conjunctive", false, "conjunctive query model")
		queryStr  = flag.String("query", "", "space-separated query terms (default: generated workload)")
		numQ      = flag.Int("queries", 5, "generated workload size when -query is empty")
		seed      = flag.Int64("seed", 42, "master seed")
		transp    = flag.String("transport", "inmem", "transport: inmem|tcp")
		basePort  = flag.Int("baseport", 39500, "first TCP port when -transport tcp")
		httpAddr  = flag.String("http", "", "serve the first peer's HTTP search API on this address after the workload (e.g. :8080)")
	)
	flag.Parse()

	kind, err := synopsis.ParseKind(*kindFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minerva:", err)
		os.Exit(2)
	}
	var method minerva.Method
	switch *methodStr {
	case "iqn":
		method = minerva.MethodIQN
	case "cori":
		method = minerva.MethodCORI
	case "prior":
		method = minerva.MethodPrior
	default:
		fmt.Fprintf(os.Stderr, "minerva: unknown method %q\n", *methodStr)
		os.Exit(2)
	}
	var aggregation core.AggregationMode
	switch *agg {
	case "per-peer":
		aggregation = core.PerPeer
	case "per-term":
		aggregation = core.PerTerm
	default:
		fmt.Fprintf(os.Stderr, "minerva: unknown -agg %q (want per-peer|per-term)\n", *agg)
		os.Exit(2)
	}
	if *transp != "inmem" && *transp != "tcp" {
		fmt.Fprintf(os.Stderr, "minerva: unknown -transport %q (want inmem|tcp)\n", *transp)
		os.Exit(2)
	}

	fmt.Printf("generating corpus: %d docs, seed %d\n", *docs, *seed)
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: *docs, Seed: *seed})
	cols := dataset.AssignSlidingWindow(corpus, *frags, *r, *offset)
	fmt.Printf("assigning %d peers (sliding window over %d fragments, r=%d, offset=%d)\n",
		len(cols), *frags, *r, *offset)

	var net transport.Network
	switch *transp {
	case "tcp":
		tcp := transport.NewTCP()
		defer tcp.CloseIdle()
		net = tcp
		for i := range cols {
			cols[i].Name = fmt.Sprintf("127.0.0.1:%d", *basePort+i)
		}
	default:
		net = transport.NewInMem()
	}

	fmt.Printf("booting network (%s transport, %s %d-bit synopses)...\n", *transp, kind, *bits)
	network, err := minerva.BuildNetwork(net, corpus, cols, minerva.Config{
		SynopsisKind:   kind,
		SynopsisBits:   *bits,
		SynopsisSeed:   uint64(*seed),
		HistogramCells: *hist,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "minerva:", err)
		os.Exit(1)
	}
	defer network.Close()

	var queries []dataset.Query
	if *queryStr != "" {
		queries = []dataset.Query{{ID: 1, Terms: strings.Fields(*queryStr)}}
	} else {
		queries = dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: *numQ, Seed: *seed})
	}

	opts := minerva.SearchOptions{
		K:             *k,
		MaxPeers:      *maxPeers,
		Method:        method,
		Aggregation:   aggregation,
		Conjunctive:   *conj,
		UseHistograms: *hist > 0,
	}
	var sumRecall float64
	for qi, q := range queries {
		initiator := network.Peers[qi%len(network.Peers)]
		res, err := initiator.Search(q.Terms, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "minerva: query %v: %v\n", q.Terms, err)
			os.Exit(1)
		}
		ref := network.ReferenceTopK(q.Terms, *k, *conj)
		recall := ir.RelativeRecall(res.Results, ref)
		sumRecall += recall
		fmt.Printf("\nquery %d: %v  (initiator %s, %d candidates)\n", q.ID, q.Terms, initiator.Name(), res.Candidates)
		fmt.Printf("  plan (%s):\n", method)
		for _, step := range res.Plan.Steps {
			fmt.Printf("    %-12s quality=%.3f novelty=%.1f score=%.2f covered≈%.0f\n",
				step.Peer, step.Quality, step.Novelty, step.Score, step.Covered)
		}
		top := res.Results
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Printf("  top results: ")
		for _, r := range top {
			fmt.Printf("doc%d(%.2f) ", r.DocID, r.Score)
		}
		fmt.Printf("\n  recall@%d vs centralized index: %.3f\n", *k, recall)
	}
	fmt.Printf("\nmacro-averaged recall over %d queries: %.3f\n", len(queries), sumRecall/float64(len(queries)))
	if inmem, ok := net.(*transport.InMem); ok {
		calls, bytes := inmem.Stats()
		fmt.Printf("network traffic since boot: %d RPCs, %d payload bytes\n", calls, bytes)
	}
	if *httpAddr != "" {
		fmt.Printf("\nserving %s's HTTP API on %s  (try /search?q=%s&peers=%d and /status)\n",
			network.Peers[0].Name(), *httpAddr, strings.Join(queries[0].Terms, "+"), *maxPeers)
		if err := http.ListenAndServe(*httpAddr, network.Peers[0].HTTPHandler()); err != nil {
			fmt.Fprintln(os.Stderr, "minerva:", err)
			os.Exit(1)
		}
	}
}
