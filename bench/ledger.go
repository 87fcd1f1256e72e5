package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
)

// probeDraws is how many of the pass's draws the layer probes replay.
const probeDraws = 200

// publishProbePeers is how many peers republish under trace for the
// directory.publish_* entries.
const publishProbePeers = 8

// p99Samples is the least number of latency samples a p99 is printed for.
const p99Samples = 1000

// runTraced is a run for the per-layer ledger. It first measures an
// untraced network for half the seconds, for the p50 the tracing overhead
// is judged against and for the p99. Then it deploys the workload again
// with a telemetry registry armed and the transport wrapper recording one
// span per RPC, replays one pass, replays probeDraws of its draws stage by
// stage through the layer probes, republishes a few peers, and writes the
// spans to out/trace-<workload>.jsonl.
func runTraced(w workload, seed int64, seconds float64, scratch string) (*report, error) {
	rep := newReport(w, seed, seconds, true)
	in := generateInputs(w, seed)

	plain, err := buildNetwork(w, in, false, scratch)
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	r := newRunner(plain, in)
	rep.Clients = r.clients
	passes, err := r.passes(seconds/2, 1)
	if err != nil {
		plain.close()
		return nil, err
	}
	var timedP50 []float64
	for _, p := range passes {
		timedP50 = append(timedP50, p.p50)
		rep.Attempted += p.ops
		rep.Failed += int(p.failed)
	}
	sort.Float64s(timedP50)
	samples := append([]float64(nil), r.all...)
	sort.Float64s(samples)
	rep.set("minerva.search_samples", float64(len(samples)))
	if len(samples) >= p99Samples {
		rep.setN("minerva.search_p99_ms", len(samples), percentile(samples, 0.99))
	} else {
		rep.set("minerva.search_p99_ms", 0)
	}
	rep.set("bench.open_p95_ms", 0)
	rep.set("bench.generator_late_ms", 0)
	if w.OpenRate > 0 {
		open := r.openPhase(rep)
		rep.setN("bench.open_p95_ms", open.ops/openWindows, open.p95...)
		rep.setN("bench.generator_late_ms", open.ops, open.lateP95)
	}
	plain.close()
	runtime.GC()

	n, err := buildNetwork(w, in, true, scratch)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer n.close()
	r = newRunner(n, in)
	if _, err := r.pass(); err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}
	n.resetCounters()
	n.rec.tracing.Store(true)
	traced, err := r.pass()
	if err != nil {
		return nil, err
	}
	rep.Passes = 1
	rep.Attempted += traced.ops
	rep.Failed += int(traced.failed)
	counters := n.counters()

	// The layer probes: the system searches a draw, then the probe replays
	// it stage by stage on the same initiator.
	var acc probeAcc
	draws := in.draws
	if len(draws) > probeDraws {
		draws = draws[:probeDraws]
	}
	for _, d := range draws {
		q := in.pool[d]
		res, err := n.searchAs("probe.search", 0, q, false)
		if err != nil {
			return nil, fmt.Errorf("probe search: %w", err)
		}
		if err := n.probe(0, q, res, &acc); err != nil {
			rep.problem("%v", err)
			break
		}
	}

	// A few publishes under trace, for the write side of the directory.
	before := n.counters()["directory.cache_invalidations"]
	publishers := len(n.posts)
	if publishers > publishProbePeers {
		publishers = publishProbePeers
	}
	probePosts := 0
	for peer := 0; peer < publishers; peer++ {
		if err := n.publish(peer, r.epoch+1); err != nil {
			return nil, fmt.Errorf("publish probe: %w", err)
		}
		probePosts += n.posts[peer]
	}
	invalidations := n.counters()["directory.cache_invalidations"] - before
	n.rec.tracing.Store(false)

	echo, err := n.echo(2000)
	if err != nil {
		return nil, fmt.Errorf("echo probe: %w", err)
	}
	rep.set("transport.echo_rtt_us", echo)
	rep.set("synopsis.build_us_per_term", n.synopsisBuild(0, 200))
	rep.set("ir.index_docs_per_s", indexBuild(in))

	spans := n.rec.snapshot()
	rep.TraceFile = filepath.Join(scratch, "trace-"+w.Name+".jsonl")
	if err := writeTrace(rep.TraceFile, spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	ledger(rep, w, tracedRun{
		setup: n.setup, pass: traced, counters: counters, roots: roots(spans),
		acc: acc, probePeer: n.callers[0].peer,
		probePosts: probePosts, publishers: publishers, invalidations: invalidations,
		timedP50: median(timedP50),
	})
	rep.finish()
	return rep, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun is what the traced half of a run hands to the ledger.
type tracedRun struct {
	setup    setupStats
	pass     passStats        // the traced pass
	counters map[string]int64 // registry counters over the traced pass
	roots    []rootStats
	acc      probeAcc
	// probePeer is the initiator the probes ran on.
	probePeer string
	// The publish probe: posts and peers published, and the cache
	// invalidations the registry counted meanwhile.
	probePosts, publishers int
	invalidations          int64
	// timedP50 is the untraced network's median search latency.
	timedP50 float64
}

// ledger fills in the per-layer metrics from the traced pass's spans and
// registry counters, the probe stages and the set-up phases.
func ledger(rep *report, w workload, t tracedRun) {
	setup, pass, acc := t.setup, t.pass, t.acc
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	count := func(name string) float64 { return float64(t.counters[name]) }
	ops := float64(pass.ops)

	// Roots by name: the traced pass's searches, the publishes, and one
	// root per probe stage. The searches the probes ran to get a plan to
	// compare with are not part of the pass.
	var searches, publishes []rootStats
	stageDur := map[string]int64{}
	stageSelf := map[string]int64{}
	for _, r := range t.roots {
		switch r.Name {
		case "search":
			searches = append(searches, r)
		case "probe.search":
		case "publish":
			publishes = append(publishes, r)
		default:
			stageDur[r.Name] += r.dur()
			stageSelf[r.Name] += r.Self
		}
	}
	var self, searchDur, rpcN, rpcBusy int64
	calls := map[string]int{}
	busy := map[string]int64{}
	in := map[string]int{}
	var bytesOut, bytesIn int
	for _, s := range searches {
		self += s.Self
		searchDur += s.dur()
		for f, c := range s.Calls {
			calls[f] += c
			busy[f] += s.Busy[f]
			in[f] += s.In[f]
			rpcN += int64(c)
			rpcBusy += s.Busy[f]
			bytesOut += s.Out[f]
			bytesIn += s.In[f]
		}
	}
	probes := float64(acc.Searches)
	perProbe := func(stage string) float64 { return ratio(us(stageDur["probe."+stage]), probes) }

	rep.set("chord.lookup_us", ratio(us(stageDur["probe.lookup"]), float64(acc.Lookups)))
	rep.set("chord.rpcs_per_search", float64(calls["chord"])/ops)
	rep.set("chord.rpc_us_per_search", us(busy["chord"])/ops)
	rep.set("chord.lookup_restarts", count("chord.lookup.restarts"))

	rep.set("transport.calls_per_search", float64(rpcN)/ops)
	rep.set("transport.bytes_out_per_search", float64(bytesOut)/ops)
	rep.set("transport.bytes_in_per_search", float64(bytesIn)/ops)
	rep.set("transport.call_us", ratio(us(rpcBusy), float64(rpcN)))
	rep.set("transport.call_errors", count("transport.call_errors"))
	rep.set("transport.codec_decode_us", perProbe("codec_decode"))
	rep.set("transport.codec_encode_us", perProbe("codec_encode"))
	rep.set("transport.codec_allocs", ratio(float64(acc.CodecAllocs), probes))

	rep.set("directory.fetch_us", perProbe("fetch"))
	rep.set("directory.fetch_cached_us", perProbe("fetch_cached"))
	rep.set("directory.rpcs_per_search", float64(calls["dir"])/ops)
	rep.set("directory.rpc_us_per_search", us(busy["dir"])/ops)
	rep.set("directory.posts_per_search", ratio(float64(acc.Posts), probes))
	rep.set("directory.fetch_kb_per_search", float64(in["dir"])/1024/ops)
	rep.set("directory.cache_hit_ratio", ratio(count("directory.cache_hits"), count("directory.cache_hits")+count("directory.cache_misses")))
	rep.set("directory.synopsis_reuse_ratio", ratio(count("directory.cache_synopsis_reuse"), count("directory.cache_synopsis_reuse")+count("directory.cache_synopsis_decodes")))
	rep.set("directory.fetch_errors", count("directory.fetch_errors"))
	var pubDur int64
	var pubRPCs, pubOut int
	for _, p := range publishes[len(publishes)-t.publishers:] {
		pubDur += p.dur()
		pubRPCs += p.Calls["dir"]
		pubOut += p.Out["dir"]
	}
	rep.set("directory.publish_us_per_post", ratio(us(pubDur), float64(t.probePosts)))
	rep.set("directory.publish_rpcs_per_peer", ratio(float64(pubRPCs), float64(t.publishers)))
	rep.set("directory.publish_kb_per_post", ratio(float64(pubOut)/1024, float64(t.probePosts)))
	rep.set("directory.cache_invalidations_per_publish", ratio(float64(t.invalidations), float64(t.publishers)))

	rep.set("synopsis.unmarshal_us_per_post", ratio(us(stageDur["probe.synopsis_unmarshal"]), float64(acc.Posts)))
	rep.set("synopsis.bytes_per_post", ratio(float64(acc.SynBytes), float64(acc.Posts)))
	rep.set("synopsis.resemblance_ns", ratio(float64(stageDur["probe.resemblance"]), float64(acc.Pairs)))

	rep.set("cori.score_us_per_candidate", ratio(us(stageDur["probe.cori"]), float64(acc.Candidates)))

	rep.set("core.route_us", perProbe("route"))
	rep.set("core.candidates_per_search", count("route.candidates")/ops)
	rep.set("core.iterations_per_search", count("route.selections")/ops)
	rep.set("core.evaluations_per_search", count("route.evaluations")/ops)
	rep.set("core.lazy_skip_ratio", ratio(count("route.lazy_skips"), count("route.lazy_skips")+count("route.evaluations")))

	rep.set("ir.local_search_us", ratio(us(stageDur["probe.local_search"]), float64(acc.LocalSearches)))
	rep.set("ir.postings_per_search", ratio(float64(acc.Postings), probes))
	rep.set("ir.results_per_search", ratio(float64(acc.Results), probes))
	rep.set("ir.merge_us", perProbe("merge"))

	rep.set("topk.chunks_per_search", count("topk.chunks")/ops)
	rep.set("topk.entries_per_search", count("topk.stream_entries")/ops)
	rep.set("topk.early_stop_ratio", ratio(count("topk.early_stops"), float64(pass.peers)))
	rep.set("topk.stream_restarts", count("topk.stream_restarts"))

	rep.set("minerva.search_self_us", us(self)/ops)
	rep.set("minerva.serve_us_per_search", us(busy["peer"])/ops)
	rep.set("minerva.serve_rpcs_per_search", float64(calls["peer"])/ops)
	rep.set("minerva.reroutes_per_search", float64(pass.reroutes)/ops)
	rep.set("minerva.peer_errors", float64(pass.errors))
	rep.set("minerva.coalesced", count("search.coalesced"))
	rep.set("minerva.build_posts_us_per_term", ratio(setup.BuildPostsS*1e6, float64(setup.Posts)))

	if w.Disk {
		rep.set("buildix.build_docs_per_s", float64(setup.Docs)/setup.IndexS)
		rep.set("buildix.spill_runs", float64(setup.Runs))
		rep.set("buildix.merge_passes", float64(setup.MergePasses))
		rep.set("buildix.index_bytes_per_doc", ratio(float64(setup.IndexBytes), float64(setup.Docs)))
		rep.set("buildix.syn_bytes_per_term", ratio(float64(setup.SynBytes), float64(setup.Terms)))
	} else {
		for _, name := range []string{"build_docs_per_s", "spill_runs", "merge_passes", "index_bytes_per_doc", "syn_bytes_per_term"} {
			rep.set("buildix."+name, 0)
		}
	}

	rep.set("telemetry.overhead_pct", 100*(pass.p50-t.timedP50)/t.timedP50)

	// The initiator-side stages of one search, against the self time of
	// the searches the probes followed. The fetch stage's own RPCs are the
	// remote share, so only its self time counts.
	fetch := "probe.fetch"
	if w.Cache {
		fetch = "probe.fetch_cached"
	}
	covered := stageSelf[fetch]
	for _, stage := range []string{"synopsis_decode", "assemble", "route", "self_search", "forward_codec", "merge"} {
		covered += stageDur["probe."+stage]
	}
	// The denominator is the traced pass's own searches of the draws the
	// probes replayed: client 0's first ones, in order.
	var passSelf int64
	followed := 0
	for _, s := range searches {
		if s.Peer == t.probePeer && followed < acc.Searches {
			passSelf += s.Self
			followed++
		}
	}
	rep.set("bench.self_coverage", ratio(float64(covered), float64(passSelf)))

	rep.Stages = map[string]stageTime{}
	for name, d := range stageDur {
		rep.Stages[name] = stageTime{US: ratio(us(d), probes), SelfUS: ratio(us(stageSelf[name]), probes)}
	}
	rep.Stages["search"] = stageTime{US: ratio(us(searchDur), ops), SelfUS: ratio(us(self), ops)}
}
