package main

// metricDef is one catalogue entry. The catalogue is the single list the
// runs print from, -compare judges by, BENCHMARK.json is checked against
// and README.md documents.
type metricDef struct {
	// Name of a per-layer metric is <module>.<metric>.
	Name string
	Unit string
	// Higher reports that a larger value is better.
	Higher bool
	// Bound is the share of the old median by which the metric may get
	// worse, at the same seed, before -compare calls it regressed.
	// Absolute switches the bound to an absolute difference. Per-layer
	// metrics have no bound.
	Bound    float64
	Absolute bool
	// Gate is the bound written to BENCHMARK.json for end-to-end metrics
	// every workload reports: the driver compares runs at different
	// seeds, so it has to cover the spread between seeds as well. Zero
	// keeps the metric out of BENCHMARK.json (it is zero or missing on
	// some workload, which the contract does not allow).
	Gate float64
	// Only names the workloads that report the metric; empty means all.
	Only []string
	// Moves names what the metric should move (for a layer metric: which
	// end-to-end metric, on which workload).
	Moves string
}

// endToEnd is what a user of the system sees. An "exact" count regresses
// when it is more than 0.5% worse: at one seed it repeats bit for bit.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.15, Gate: 0.25,
		Moves: "median of three network set-ups in the run: ring, index build, post construction, publish"},
	{Name: "search_p50_ms", Unit: "ms", Bound: 0.10, Gate: 0.25,
		Moves: "median over passes of the pass's median search latency"},
	{Name: "search_p95_ms", Unit: "ms", Bound: 0.15, Gate: 0.25,
		Moves: "median over passes of the pass's 95th percentile"},
	{Name: "search_qps", Unit: "1/s", Higher: true, Bound: 0.10, Gate: 0.25,
		Moves: "searches over the wall time the pass spent searching, all clients together"},
	{Name: "open_p95_ms", Unit: "ms", Bound: 0.15, Only: []string{"tcp-serve"},
		Moves: "95th percentile at a fixed 400 searches/s, timed from each scheduled send, median of three windows; a backlog still growing at the end fails the run"},
	{Name: "failed_search_frac", Unit: "ratio", Bound: 0, Absolute: true,
		Moves: "searches with an error or a non-empty Errors over searches attempted; 0 on these fault-free workloads, so the driver reads it from attempted/failed"},
	{Name: "recall_at_k", Unit: "ratio", Higher: true, Bound: 0.005, Absolute: true, Gate: 0.15,
		Moves: "mean relative recall of the merged top-K against the centralized top-K, over the pool"},
	{Name: "peers_per_search", Unit: "count", Bound: 0.005, Gate: 0.05,
		Moves: "peers contacted per search, replacements included"},
	{Name: "rpcs_per_search", Unit: "count", Bound: 0.005, Gate: 0.15,
		Moves: "RPCs per search, counted by the transport wrapper"},
	{Name: "wire_kb_per_search", Unit: "KiB", Bound: 0.005, Gate: 0.2,
		Moves: "request plus response payload bytes per search"},
	{Name: "alloc_kb_per_search", Unit: "KiB", Bound: 0.02, Gate: 0.25,
		Moves: "bytes allocated by the whole process while searching, per search"},
	{Name: "allocs_per_search", Unit: "count", Bound: 0.02, Gate: 0.25,
		Moves: "heap objects allocated by the whole process while searching, per search"},
	{Name: "peak_rss_mb", Unit: "MiB", Bound: 0.10, Gate: 0.15,
		Moves: "VmHWM of the run's process, three set-ups included"},
	{Name: "publish_posts_per_s", Unit: "1/s", Higher: true, Bound: 0.10, Gate: 0.25,
		Moves: "posts per second through Peer.PublishPostsEpoch with the posts already built: per epoch on republish-mix, at set-up elsewhere"},
	{Name: "build_docs_per_s", Unit: "1/s", Higher: true, Bound: 0.10, Gate: 0.25,
		Moves: "documents per second through the index build at set-up: buildix on disk-local, the in-memory index elsewhere"},
}

// perLayer is the ledger of a traced run. Every workload prints every
// entry; one that does not apply there reads 0.
var perLayer = []metricDef{
	{Name: "chord.lookup_us", Unit: "us", Moves: "search_p50_ms, search_qps on cold-pull; setup_s on republish-mix"},
	{Name: "chord.rpcs_per_search", Unit: "count", Moves: "rpcs_per_search on cold-pull"},
	{Name: "chord.rpc_us_per_search", Unit: "us", Moves: "search_p50_ms on cold-pull"},
	{Name: "chord.lookup_restarts", Unit: "count", Moves: "rpcs_per_search; 0 without faults"},

	{Name: "transport.calls_per_search", Unit: "count", Moves: "rpcs_per_search everywhere"},
	{Name: "transport.bytes_out_per_search", Unit: "B", Moves: "wire_kb_per_search"},
	{Name: "transport.bytes_in_per_search", Unit: "B", Moves: "wire_kb_per_search"},
	{Name: "transport.call_us", Unit: "us", Moves: "search_p50_ms, search_qps, open_p95_ms on tcp-serve"},
	{Name: "transport.call_errors", Unit: "count", Moves: "failed_search_frac; 0 without faults"},
	{Name: "transport.codec_decode_us", Unit: "us", Moves: "search_p50_ms, search_qps, allocs_per_search on cold-pull; nothing on warm-stream"},
	{Name: "transport.codec_encode_us", Unit: "us", Moves: "publish_posts_per_s on republish-mix; setup_s"},
	{Name: "transport.codec_allocs", Unit: "count", Moves: "allocs_per_search on cold-pull"},
	{Name: "transport.echo_rtt_us", Unit: "us", Moves: "search_p50_ms, open_p95_ms on tcp-serve; nothing in memory"},

	{Name: "directory.fetch_us", Unit: "us", Moves: "search_p50_ms, search_qps on cold-pull"},
	{Name: "directory.fetch_cached_us", Unit: "us", Moves: "search_p50_ms on warm-stream, tcp-serve, disk-local"},
	{Name: "directory.rpcs_per_search", Unit: "count", Moves: "rpcs_per_search on cold-pull, republish-mix"},
	{Name: "directory.rpc_us_per_search", Unit: "us", Moves: "search_p50_ms on cold-pull"},
	{Name: "directory.posts_per_search", Unit: "count", Moves: "wire_kb_per_search on cold-pull"},
	{Name: "directory.fetch_kb_per_search", Unit: "KiB", Moves: "wire_kb_per_search on cold-pull, republish-mix"},
	{Name: "directory.cache_hit_ratio", Unit: "ratio", Higher: true, Moves: "rpcs_per_search, wire_kb_per_search, search_p50_ms on warm-stream, tcp-serve, republish-mix"},
	{Name: "directory.synopsis_reuse_ratio", Unit: "ratio", Higher: true, Moves: "search_p50_ms on the cached workloads"},
	{Name: "directory.fetch_errors", Unit: "count", Moves: "failed_search_frac; 0 without faults"},
	{Name: "directory.publish_us_per_post", Unit: "us", Moves: "publish_posts_per_s on republish-mix; setup_s everywhere"},
	{Name: "directory.publish_rpcs_per_peer", Unit: "count", Moves: "publish_posts_per_s"},
	{Name: "directory.publish_kb_per_post", Unit: "KiB", Moves: "publish_posts_per_s"},
	{Name: "directory.cache_invalidations_per_publish", Unit: "count", Moves: "rpcs_per_search on republish-mix"},

	{Name: "synopsis.unmarshal_us_per_post", Unit: "us", Moves: "search_p50_ms on cold-pull"},
	{Name: "synopsis.bytes_per_post", Unit: "B", Moves: "wire_kb_per_search on cold-pull"},
	{Name: "synopsis.resemblance_ns", Unit: "ns", Moves: "search_p50_ms on warm-stream"},
	{Name: "synopsis.build_us_per_term", Unit: "us", Moves: "setup_s everywhere"},

	{Name: "cori.score_us_per_candidate", Unit: "us", Moves: "search_p50_ms on warm-stream"},

	{Name: "core.route_us", Unit: "us", Moves: "search_p50_ms on warm-stream; a small share on cold-pull"},
	{Name: "core.candidates_per_search", Unit: "count", Moves: "core.route_us"},
	{Name: "core.iterations_per_search", Unit: "count", Moves: "peers_per_search"},
	{Name: "core.evaluations_per_search", Unit: "count", Moves: "search_p50_ms on warm-stream"},
	{Name: "core.lazy_skip_ratio", Unit: "ratio", Higher: true, Moves: "core.route_us"},

	{Name: "ir.local_search_us", Unit: "us", Moves: "search_p50_ms, search_qps on disk-local, then warm-stream"},
	{Name: "ir.postings_per_search", Unit: "count", Moves: "ir.local_search_us"},
	{Name: "ir.results_per_search", Unit: "count", Moves: "wire_kb_per_search on the pull workloads"},
	{Name: "ir.merge_us", Unit: "us", Moves: "search_p50_ms on disk-local"},
	{Name: "ir.index_docs_per_s", Unit: "1/s", Higher: true, Moves: "build_docs_per_s, setup_s on the in-memory workloads"},

	{Name: "topk.chunks_per_search", Unit: "count", Moves: "rpcs_per_search on warm-stream, disk-local; 0 on pull"},
	{Name: "topk.entries_per_search", Unit: "count", Moves: "wire_kb_per_search on warm-stream, disk-local"},
	{Name: "topk.early_stop_ratio", Unit: "ratio", Higher: true, Moves: "wire_kb_per_search on warm-stream, disk-local"},
	{Name: "topk.stream_restarts", Unit: "count", Moves: "rpcs_per_search; 0 without re-indexing"},

	{Name: "minerva.search_self_us", Unit: "us", Moves: "search_p50_ms: the initiator's own share of a search"},
	{Name: "minerva.serve_us_per_search", Unit: "us", Moves: "search_p50_ms, search_qps on disk-local"},
	{Name: "minerva.serve_rpcs_per_search", Unit: "count", Moves: "rpcs_per_search"},
	{Name: "minerva.search_p99_ms", Unit: "ms", Moves: "a tail guard; 0 below 1,000 samples"},
	{Name: "minerva.search_samples", Unit: "count", Moves: "sample count behind search_p99_ms"},
	{Name: "minerva.reroutes_per_search", Unit: "count", Moves: "peers_per_search; 0 without faults"},
	{Name: "minerva.peer_errors", Unit: "count", Moves: "failed_search_frac; 0 without faults"},
	{Name: "minerva.coalesced", Unit: "count", Moves: "rpcs_per_search on tcp-serve under duplicate bursts"},
	{Name: "minerva.build_posts_us_per_term", Unit: "us", Moves: "setup_s everywhere"},

	{Name: "buildix.build_docs_per_s", Unit: "1/s", Higher: true, Moves: "build_docs_per_s, setup_s on disk-local"},
	{Name: "buildix.spill_runs", Unit: "count", Moves: "buildix.build_docs_per_s"},
	{Name: "buildix.merge_passes", Unit: "count", Moves: "buildix.build_docs_per_s"},
	{Name: "buildix.index_bytes_per_doc", Unit: "B", Moves: "ir.local_search_us on disk-local"},
	{Name: "buildix.syn_bytes_per_term", Unit: "B", Moves: "setup_s on disk-local"},

	{Name: "telemetry.overhead_pct", Unit: "%", Moves: "a guard: traced-pass p50 against the untraced p50 of the same run"},

	{Name: "bench.self_coverage", Unit: "ratio", Moves: "initiator-side probe stages over the search's self time; far from 1, the ledger is lying"},
	{Name: "bench.open_p95_ms", Unit: "ms", Moves: "open_p95_ms as the traced run saw it (tcp-serve)"},
	{Name: "bench.generator_late_ms", Unit: "ms", Moves: "95th percentile of how late the open-loop generator sent (tcp-serve)"},
}

func findMetric(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	for i := range perLayer {
		if perLayer[i].Name == name {
			return &perLayer[i]
		}
	}
	return nil
}
