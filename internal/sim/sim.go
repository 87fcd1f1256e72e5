// Package sim is the scenario-driven chaos simulation harness: it
// drives a full in-process MINERVA network (internal/minerva) through a
// scripted fault schedule — peers crashing (also mid-query), one-way
// partitions, slow links, slowed or saturated peers, stale directory
// entries, maintenance and anti-entropy rounds — injected
// deterministically by transport.Faulty, and checks the robustness
// invariants the query path promises:
//
//   - no deadlock: every query completes under a watchdog;
//   - no silent shrinkage: a selected peer that was lost appears in
//     SearchResult.Errors — never just a smaller result set;
//   - bounded degradation: micro-averaged recall stays within a
//     scenario-declared fraction of the fault-free run;
//   - determinism: the same scenario and seed reproduce the same fault
//     schedule, the same merged top-k, and the same circuit-breaker
//     transition trace, byte for byte (asserted by the package tests
//     via Report.Schedule, QueryOutcome.Docs, and Report.BreakerTrace);
//   - bounded tail latency: with the overload hardening armed (Budget,
//     HedgeDelay, Breakers) every query under a scripted straggler
//     finishes inside Scenario.LatencyBound, degrading to a partial
//     top-k plus structured errors instead of waiting the straggler
//     out.
//
// Scenarios are data, not code, so new failure stories are added by
// declaring events — the simulator equivalent of the routing-under-
// faults evaluations argued for by the P2P simulator line of related
// work (see PAPERS.md).
package sim

import (
	"context"
	"fmt"
	"time"

	"iqn/internal/adapt"
	"iqn/internal/core"
	"iqn/internal/dataset"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// EventKind enumerates scripted fault events.
type EventKind int

const (
	// Kill crashes a peer: every call to (and from) it fails until
	// Revive. Its directory posts stay — stale — until a Maintenance
	// event prunes them.
	Kill EventKind = iota
	// Revive clears a crash.
	Revive
	// PartitionLink blocks the From→To direction of one link (the
	// reverse direction keeps working — a true one-way partition).
	PartitionLink
	// HealLink removes every rule on the From→To link.
	HealLink
	// SlowLink delays every call on the From→To link by Delay.
	SlowLink
	// CrashOnQuery arms a crash-on-Nth-call rule on the peer's incoming
	// query RPC (minerva.MethodQuery, one call per chunk): the peer dies
	// the moment the Nth call reaches it — a mid-query crash, not a
	// between-queries one.
	CrashOnQuery
	// StaleEntry publishes a ghost peer's posts into the directory: a
	// copy of the source peer's publications under an address nobody
	// serves. Routing that selects the ghost must surface the failure
	// and re-route.
	StaleEntry
	// Maintenance runs one synchronized maintenance round (republish +
	// prune), aging out the posts of crashed peers and ghosts.
	Maintenance
	// SlowPeer delays the peer's serving RPCs (incoming query forwards
	// and directory reads) by Delay — the classic tail-latency straggler,
	// a peer 10× slower than its neighbours. Ring-maintenance RPCs stay
	// fast: they are tiny, and slowing them would test Chord's routing
	// fallbacks rather than the query path's deadline budgets and hedged
	// reads, which is what the straggler scenario isolates.
	SlowPeer
	// Saturate sets the peer's server-side admission limits to
	// Limit/Queue in-flight/queued requests; excess calls are rejected
	// fast with ErrOverloaded instead of piling up. Limit 0 disarms.
	Saturate
	// AntiEntropy runs one network-wide anti-entropy sweep: every live
	// peer digest-compares its stored terms' replica sets and patches
	// divergent replicas — no republishing.
	AntiEntropy
	// Join boots the peer with index Peer (which must be above the
	// scenario's InitialPeers floor, i.e. not yet booted) and enters it
	// through the live-join protocol: the newcomer pulls its directory
	// range before becoming visible, then publishes its own posts at the
	// current epoch.
	Join
	// Leave departs the peer gracefully: its own posts are withdrawn,
	// its stored directory fraction is pushed to its successor, the ring
	// is spliced via leave notices, and the peer stops serving. Contrast
	// with Kill, which drops everything on the floor.
	Leave
	// Inflate republishes the peer's directory posts with ListLength and
	// MaxScore multiplied by Factor (default 50) while its index — and
	// so what it can actually deliver — is unchanged: the adversarial
	// publisher the adaptive layer's divergence detector exists for. The
	// inflated claims boost the peer's CORI quality, so routing prefers
	// it; with Scenario.Adaptive armed, initiators compare its delivered
	// scores against the inflated claims and downweight it. A later
	// Maintenance round restores the honest posts (republish overwrites).
	Inflate
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Revive:
		return "revive"
	case PartitionLink:
		return "partition"
	case HealLink:
		return "heal"
	case SlowLink:
		return "slow"
	case CrashOnQuery:
		return "crash-on-query"
	case StaleEntry:
		return "stale-entry"
	case Maintenance:
		return "maintenance"
	case SlowPeer:
		return "slow-peer"
	case Saturate:
		return "saturate"
	case AntiEntropy:
		return "anti-entropy"
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Inflate:
		return "inflate"
	}
	return "?"
}

// Event is one scripted fault, fired before the query with index Before
// (logical time is query count; Before ≥ the number of queries fires
// after the workload, which is only useful for Maintenance bookkeeping).
type Event struct {
	// Before is the query index the event precedes.
	Before int
	// Kind selects the fault.
	Kind EventKind
	// Peer is the target peer index (Kill, Revive, CrashOnQuery,
	// StaleEntry source).
	Peer int
	// From and To are the link endpoints (PartitionLink, HealLink,
	// SlowLink); they index peers.
	From, To int
	// Delay is the injected latency for SlowLink and SlowPeer.
	Delay time.Duration
	// Nth is CrashOnQuery's trigger count (default 1: the very next
	// forwarded query call).
	Nth int
	// Limit and Queue are Saturate's admission bounds: at most Limit
	// in-flight requests with Queue more waiting; the rest are rejected
	// with ErrOverloaded. Limit 0 disarms admission control.
	Limit, Queue int
	// Factor is Inflate's claim multiplier (default 50).
	Factor float64
}

// Scenario declares one simulation: the network, the workload, the
// fault script, and the declared degradation bound.
type Scenario struct {
	// Name labels reports.
	Name string
	// Seed drives corpus, queries, fault RNGs, and retry jitter.
	Seed int64
	// NumDocs and VocabSize shape the corpus (defaults 2000 / 1500).
	NumDocs, VocabSize int
	// Fragments, Window, Offset shape the sliding-window collection
	// assignment (defaults 20 / 4 / 2 → 10 overlapping peers).
	Fragments, Window, Offset int
	// Queries is the workload size (default 5).
	Queries int
	// K and MaxPeers tune each search (defaults 20 / 3).
	K, MaxPeers int
	// Replicas is the directory replication factor (default 2 — chaos
	// without replication loses directory fractions by design).
	Replicas int
	// Retry is the forward retry policy; its Seed is overridden with the
	// scenario seed for reproducibility.
	Retry transport.RetryPolicy
	// NoReroute disables failure re-routing (for ablation scenarios).
	NoReroute bool
	// Budget is the per-query deadline budget (minerva.SearchOptions.
	// Budget). Zero: no budget — queries wait out whatever latency the
	// events inject.
	Budget time.Duration
	// HedgeDelay enables hedged directory reads: a replica is raced in
	// when the owner has not answered within the delay.
	HedgeDelay time.Duration
	// Breakers, non-nil, arms per-link circuit breakers on every peer.
	// The config's Seed is overridden with the scenario seed.
	Breakers *transport.BreakerConfig
	// AdmissionLimit and AdmissionQueue, when Limit > 0, bound every
	// peer's served concurrency from boot (the Saturate event sets the
	// same knobs mid-run on one peer).
	AdmissionLimit, AdmissionQueue int
	// RecallBound, when > 0, is the minimum allowed ratio of faulty
	// recall to fault-free recall; falling below it is an invariant
	// violation.
	RecallBound float64
	// LatencyBound, when > 0, is the per-query wall-clock ceiling under
	// faults; a query exceeding it is an invariant violation. It is the
	// scenario's declared tail bound — meaningful when a Budget (or
	// hedged reads) promises to keep queries out of a straggler's shadow.
	LatencyBound time.Duration
	// DirectoryCacheTTL arms every peer's directory read cache
	// (minerva.Config.DirectoryCacheTTL): fetched PeerLists are served
	// locally for up to the TTL, invalidated by republish/prune/repair.
	// Zero runs uncached.
	DirectoryCacheTTL time.Duration
	// CacheParity, with DirectoryCacheTTL > 0, runs an uncached twin of
	// the scenario (same seed, same events, TTL zero) and asserts the
	// cache is semantically invisible: every query must produce byte-
	// identical Docs, Planned peers, canonical Trace, and error text in
	// both runs. Any divergence is an invariant violation. Meaningful for
	// fault-free or deterministic-fault scenarios — probabilistic rules
	// (Drop/Error probabilities) consume their RNG per matching call, so
	// the cached run's smaller RPC count legitimately changes the
	// schedule.
	CacheParity bool
	// Telemetry arms a shared telemetry registry across the network and
	// per-query traces: every query runs under a telemetry span whose
	// canonical rendering lands in QueryOutcome.Trace (trace IDs are the
	// query indexes, so traces are byte-comparable across replays of the
	// same fault schedule), and Report.Metrics holds the run's aggregate
	// counter/histogram snapshot.
	Telemetry bool
	// TopKStreaming forwards every query in small chunks
	// (minerva.SearchOptions.TopKStreaming): peers stream score-descending
	// result chunks and the initiator's threshold coordinator stops them
	// early instead of pulling each full top-K list as one chunk.
	TopKStreaming bool
	// ChunkSize is the streaming protocol's entries-per-chunk (0: the
	// peer default).
	ChunkSize int
	// MergeK truncates each query's merged result list (minerva.
	// SearchOptions.MergeK). Zero keeps every returned document — except
	// under TopKParity, which normalizes MergeK to K for both twins (at
	// depth zero there is no k-th score, so the streaming twin would
	// never stop a peer early and the comparison would prove nothing).
	MergeK int
	// InitialPeers, when > 0, boots only the first InitialPeers
	// collections; the rest exist as named-but-unbooted slots that Join
	// events grow the ring with. Zero boots every collection (the
	// pre-churn behavior).
	InitialPeers int
	// CheckLostPosts, when true, runs a final directory sweep after the
	// workload: every live peer's published terms (sampled per peer at
	// scale, exhaustive on small rings) must still resolve to a PeerList
	// containing that peer's post. Every miss is counted in
	// Report.LostPosts and reported as an invariant violation — the
	// "zero permanently-lost directory posts under graceful churn"
	// guarantee.
	CheckLostPosts bool
	// Adaptive, non-nil, arms every peer's adaptive query-log store
	// (minerva.Config.Adaptive): initiators record which peers actually
	// contributed merged top-k entries, blend a historical-contribution
	// prior into routing, and downweight peers the result-vs-synopsis
	// divergence detector flags (the Inflate event's adversary). Note
	// the workload rotates initiators, so each peer's store sees only
	// the queries it initiated — scenarios that want flagging after few
	// queries should set MinObservations to 1.
	Adaptive *adapt.Config
	// AdaptiveParity, with Adaptive set, runs the scenario twice more:
	// a replay with identical configuration, asserting every query's
	// Docs, Planned peers, canonical Trace, and error text are byte-
	// identical — the adaptive prior must be a deterministic function of
	// the observations recorded so far, never of scheduling — and a
	// prior-off twin (Adaptive nil, same seed and events) whose recall
	// lands in Report.PriorOffRecall, quantifying what the adaptive
	// layer changed. Any replay divergence is an invariant violation.
	AdaptiveParity bool
	// TopKParity, with TopKStreaming set, runs a pull-everything twin
	// of the scenario (same seed, same events, TopKStreaming off) and
	// asserts the streaming protocol is semantically invisible: every
	// query must produce byte-identical Docs, the same Planned peers,
	// the same lost-peer set, and the same search-level error text in
	// both runs. A third run replays the streaming scenario and asserts
	// its canonical traces are byte-identical to the first — streaming's
	// chunk counts and early-stop decisions must be deterministic, not
	// schedule-dependent. (Streaming and pull traces are structurally
	// different by design, so trace identity is asserted between the
	// streaming replays, not across the protocol twins.) Any divergence
	// is an invariant violation. Meaningful for fault-free or
	// deterministic-fault scenarios, like CacheParity.
	TopKParity bool
	// Events is the fault script.
	Events []Event
}

func (s Scenario) withDefaults() Scenario {
	if s.NumDocs <= 0 {
		s.NumDocs = 2000
	}
	if s.VocabSize <= 0 {
		s.VocabSize = 1500
	}
	if s.Fragments <= 0 {
		s.Fragments = 20
	}
	if s.Window <= 0 {
		s.Window = 4
	}
	if s.Offset <= 0 {
		s.Offset = 2
	}
	if s.Queries <= 0 {
		s.Queries = 5
	}
	if s.K <= 0 {
		s.K = 20
	}
	if s.MaxPeers <= 0 {
		s.MaxPeers = 3
	}
	if s.Replicas <= 0 {
		s.Replicas = 2
	}
	s.Retry.Seed = s.Seed
	return s
}

// QueryOutcome records one query of the simulated workload.
type QueryOutcome struct {
	// Index is the query's position in the workload.
	Index int
	// Terms is the query.
	Terms []string
	// Docs is the merged result list's docIDs in rank order — the
	// deterministic artifact two runs of the same scenario must agree
	// on.
	Docs []uint64
	// Errors is the search's per-peer failure report.
	Errors []minerva.PerPeerError
	// Rerouted lists replacement peers the search fell back to.
	Rerouted []core.PeerID
	// Planned is the original routing decision.
	Planned []core.PeerID
	// Recall is the query's relative recall against the centralized
	// reference index.
	Recall float64
	// Elapsed is the query's wall-clock latency (a measurement, not part
	// of the deterministic replay artifact — Docs and Schedule are).
	Elapsed time.Duration
	// BudgetExpired reports the search ran out of its deadline budget
	// and returned the merged partial top-k.
	BudgetExpired bool
	// Err is a non-"" search-level failure (directory wholly
	// unreachable); the harness records it rather than aborting.
	Err string
	// Trace is the query's canonical span-tree rendering (Scenario.
	// Telemetry only): wall-clock free, so two replays of the same fault
	// schedule must produce identical bytes — a replay invariant the
	// package tests assert alongside Docs and Schedule.
	Trace string
}

// Report is the outcome of one simulation run.
type Report struct {
	// Scenario is the scenario name.
	Scenario string
	// Outcomes holds one entry per query.
	Outcomes []QueryOutcome
	// Recall is the micro-averaged relative recall over the workload.
	Recall float64
	// FaultFreeRecall is the same workload's recall with no events and
	// no faults (computed when Scenario.RecallBound > 0).
	FaultFreeRecall float64
	// Schedule is the canonical fault-schedule rendering
	// (transport.Faulty.ScheduleString) — byte-comparable across runs.
	Schedule string
	// BreakerTrace is the canonical circuit-breaker transition trace
	// across all peers ("" when the scenario arms no breakers) — like
	// Schedule, byte-comparable across identically-seeded runs.
	BreakerTrace string
	// Metrics is the run's aggregate telemetry snapshot across every
	// peer (Scenario.Telemetry only): transport call/retry/hedge
	// counters, directory fetch and repair counts, routing and search
	// totals. Counter values are deterministic for a fixed scenario and
	// seed; histogram observations carry wall-clock latency and are not.
	Metrics *telemetry.Snapshot
	// ConvergenceLag is the worst-case directory convergence lag over
	// the run: the maximum number of network-wide stabilization rounds
	// any single membership change (Join, Leave, Kill, Revive) needed
	// before every live peer's successor was again the next live ID.
	ConvergenceLag int
	// Joins and Leaves count the membership changes fired.
	Joins, Leaves int
	// HandoffPosts and HandoffBytes total the graceful-leave directory
	// transfers (acknowledged pushes plus re-publication fallbacks).
	HandoffPosts, HandoffBytes int
	// LostPosts counts published posts of live peers that the final
	// directory sweep could not find (Scenario.CheckLostPosts only).
	// Graceful churn promises zero.
	LostPosts int
	// AdaptiveFlagged is the union, over every live peer's adaptive
	// store, of peers the divergence detector holds flagged after the
	// workload, with the rule that flagged each (Scenario.Adaptive only).
	AdaptiveFlagged map[string]string
	// PriorOffRecall is the prior-off twin's micro-averaged recall
	// (Scenario.AdaptiveParity only) — the same seed, workload, and
	// fault script with the adaptive layer disarmed.
	PriorOffRecall float64
	// Violations lists broken invariants (empty = all held).
	Violations []string
}

// queryWatchdog bounds one distributed search; exceeding it is the
// "deadlock" invariant violation.
const queryWatchdog = 30 * time.Second

// PeerNames returns the peer names the scenario will boot, in event
// peer-index order, without building the network (the collection
// assignment is a pure function of the scenario parameters). Tests use
// it to translate peer names learned from a dry run back into event
// indexes.
func PeerNames(sc Scenario) ([]string, error) {
	sc = sc.withDefaults()
	corpus := dataset.Generate(dataset.CorpusConfig{
		NumDocs:   sc.NumDocs,
		VocabSize: sc.VocabSize,
		Seed:      sc.Seed,
	})
	cols := dataset.AssignSlidingWindow(corpus, sc.Fragments, sc.Window, sc.Offset)
	if len(cols) == 0 {
		return nil, fmt.Errorf("sim: scenario %q produced no collections", sc.Name)
	}
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	return names, nil
}

// Run executes the scenario and checks its invariants. Errors are
// returned only for harness-level failures (bad scenario, network boot);
// in-run faults land in the report.
func Run(sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	if sc.CacheParity && sc.DirectoryCacheTTL <= 0 {
		return nil, fmt.Errorf("sim: scenario %q sets CacheParity without DirectoryCacheTTL", sc.Name)
	}
	if sc.TopKParity {
		if !sc.TopKStreaming {
			return nil, fmt.Errorf("sim: scenario %q sets TopKParity without TopKStreaming", sc.Name)
		}
		// Both twins merge at an explicit depth, so the streaming twin
		// has a k-th score to stop peers against.
		if sc.MergeK <= 0 {
			sc.MergeK = sc.K
		}
	}
	if sc.AdaptiveParity && sc.Adaptive == nil {
		return nil, fmt.Errorf("sim: scenario %q sets AdaptiveParity without Adaptive", sc.Name)
	}
	report, err := runOnce(sc, true)
	if err != nil {
		return nil, err
	}
	if sc.AdaptiveParity {
		replay, err := runOnce(sc, true)
		if err != nil {
			return nil, fmt.Errorf("sim: adaptive replay twin: %w", err)
		}
		report.Violations = append(report.Violations, adaptiveParityViolations(report, replay)...)
		priorOff := sc
		priorOff.Adaptive = nil
		off, err := runOnce(priorOff, true)
		if err != nil {
			return nil, fmt.Errorf("sim: prior-off twin: %w", err)
		}
		report.PriorOffRecall = off.Recall
	}
	if sc.TopKParity {
		pullTwin := sc
		pullTwin.TopKStreaming = false
		pullTwin.ChunkSize = 0
		pull, err := runOnce(pullTwin, true)
		if err != nil {
			return nil, fmt.Errorf("sim: pull twin: %w", err)
		}
		replay, err := runOnce(sc, true)
		if err != nil {
			return nil, fmt.Errorf("sim: streaming replay twin: %w", err)
		}
		report.Violations = append(report.Violations, topKParityViolations(report, pull, replay)...)
	}
	if sc.CacheParity {
		uncached := sc
		uncached.DirectoryCacheTTL = 0
		twin, err := runOnce(uncached, true)
		if err != nil {
			return nil, fmt.Errorf("sim: uncached twin: %w", err)
		}
		report.Violations = append(report.Violations, cacheParityViolations(report, twin)...)
	}
	if sc.RecallBound > 0 {
		clean := sc
		clean.Events = nil
		cleanReport, err := runOnce(clean, false)
		if err != nil {
			return nil, fmt.Errorf("sim: fault-free twin: %w", err)
		}
		report.FaultFreeRecall = cleanReport.Recall
		if cleanReport.Recall > 0 && report.Recall < sc.RecallBound*cleanReport.Recall {
			report.Violations = append(report.Violations, fmt.Sprintf(
				"recall %0.3f fell below %0.2f of fault-free %0.3f",
				report.Recall, sc.RecallBound, cleanReport.Recall))
		}
	}
	return report, nil
}

// runOnce executes the scenario once; withFaults=false suppresses the
// event script (the fault-free twin).
func runOnce(sc Scenario, withFaults bool) (*Report, error) {
	corpus := dataset.Generate(dataset.CorpusConfig{
		NumDocs:   sc.NumDocs,
		VocabSize: sc.VocabSize,
		Seed:      sc.Seed,
	})
	cols := dataset.AssignSlidingWindow(corpus, sc.Fragments, sc.Window, sc.Offset)
	if len(cols) == 0 {
		return nil, fmt.Errorf("sim: scenario %q produced no collections", sc.Name)
	}
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: sc.Queries, Seed: sc.Seed})
	bootCols := cols
	if sc.InitialPeers > 0 && sc.InitialPeers < len(cols) {
		bootCols = cols[:sc.InitialPeers]
	}
	faulty := transport.NewFaulty(transport.NewInMem(), sc.Seed)
	var breakers *transport.BreakerConfig
	if sc.Breakers != nil {
		b := *sc.Breakers
		b.Seed = sc.Seed
		breakers = &b
	}
	var registry *telemetry.Registry
	if sc.Telemetry {
		registry = telemetry.NewRegistry()
	}
	net, err := minerva.BuildNetworkEndpoints(faulty, faulty.Endpoint, corpus, bootCols, minerva.Config{
		SynopsisSeed:      uint64(sc.Seed) + 99,
		Replicas:          sc.Replicas,
		DirectoryRetry:    sc.Retry,
		Breakers:          breakers,
		HedgeDelay:        sc.HedgeDelay,
		AdmissionLimit:    sc.AdmissionLimit,
		AdmissionQueue:    sc.AdmissionQueue,
		DirectoryCacheTTL: sc.DirectoryCacheTTL,
		Adaptive:          sc.Adaptive,
		Metrics:           registry,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: boot %q: %w", sc.Name, err)
	}
	defer net.Close()
	// Event peer indexes address the full collection list — including
	// slots beyond InitialPeers that only exist once a Join boots them.
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	name := func(i int) string {
		if i < 0 || i >= len(names) {
			return ""
		}
		return names[i]
	}

	// Boot traffic (indexing, ring construction, directory publication)
	// dwarfs the workload and is identical across scenario twins, so the
	// reported metrics cover only the query workload and its events.
	registry.Reset()

	r := &Report{Scenario: sc.Name}
	epoch := int64(0)
	// converged runs measured stabilization after a membership change and
	// folds the lag into the report's worst case.
	converged := func() {
		if lag := convergeAlive(net, faulty); lag > r.ConvergenceLag {
			r.ConvergenceLag = lag
		}
	}
	fire := func(e Event) error {
		switch e.Kind {
		case Kill:
			faulty.Crash(name(e.Peer))
			converged()
		case Revive:
			faulty.Revive(name(e.Peer))
			converged()
		case PartitionLink:
			faulty.AddRule(transport.Rule{From: name(e.From), To: name(e.To), Partition: true})
		case HealLink:
			faulty.RemoveLinkRules(name(e.From), name(e.To))
		case SlowLink:
			faulty.AddRule(transport.Rule{From: name(e.From), To: name(e.To), DelayProb: 1, Delay: e.Delay})
		case CrashOnQuery:
			nth := e.Nth
			if nth <= 0 {
				nth = 1
			}
			faulty.AddRule(transport.Rule{To: name(e.Peer), Method: minerva.MethodQuery, CrashAfter: nth})
		case StaleEntry:
			src := net.Peers[e.Peer]
			posts, err := src.BuildPosts()
			if err != nil {
				return fmt.Errorf("sim: stale-entry posts from %s: %w", src.Name(), err)
			}
			ghost := fmt.Sprintf("ghost-%d", e.Peer)
			for i := range posts {
				posts[i].Peer = ghost
				posts[i].PeerAddr = ghost
				// Make the ghost attractive to quality ranking so routing
				// actually selects it and exercises the failure path.
				posts[i].ListLength *= 2
				posts[i].Epoch = epoch
			}
			if _, err := src.Directory().Publish(posts); err != nil {
				return fmt.Errorf("sim: publish ghost posts: %w", err)
			}
		case Maintenance:
			epoch++
			net.MaintenanceRound(epoch)
		case SlowPeer:
			for _, m := range []string{minerva.MethodQuery, directory.MethodGet} {
				faulty.AddRule(transport.Rule{To: name(e.Peer), Method: m, DelayProb: 1, Delay: e.Delay})
			}
		case Saturate:
			if p := net.Peer(name(e.Peer)); p != nil {
				p.Node().Mux().SetLimit(e.Limit, e.Queue)
			}
		case AntiEntropy:
			net.AntiEntropyRound()
		case Join:
			if e.Peer < 0 || e.Peer >= len(cols) {
				return fmt.Errorf("sim: join event peer %d out of range", e.Peer)
			}
			if net.Peer(name(e.Peer)) != nil {
				return fmt.Errorf("sim: join event peer %s already live", name(e.Peer))
			}
			if _, err := net.AddPeer(cols[e.Peer], epoch); err != nil {
				return fmt.Errorf("sim: join %s: %w", name(e.Peer), err)
			}
			r.Joins++
			converged()
		case Leave:
			p := net.Peer(name(e.Peer))
			if p == nil {
				return fmt.Errorf("sim: leave event peer %s not live", name(e.Peer))
			}
			rep, err := net.RemovePeer(p.Name())
			if err != nil && !faulty.Crashed(p.Name()) {
				// A live peer's graceful leave must place its fraction
				// somewhere; failure to do so is the lost-posts hazard the
				// protocol exists to prevent.
				return fmt.Errorf("sim: leave %s: %w", p.Name(), err)
			}
			r.Leaves++
			r.HandoffPosts += rep.Posts
			r.HandoffBytes += rep.Bytes
			converged()
		case Inflate:
			p := net.Peer(name(e.Peer))
			if p == nil {
				return fmt.Errorf("sim: inflate event peer %s not live", name(e.Peer))
			}
			posts, err := p.BuildPosts()
			if err != nil {
				return fmt.Errorf("sim: inflate posts from %s: %w", p.Name(), err)
			}
			factor := e.Factor
			if factor <= 0 {
				factor = 50
			}
			for i := range posts {
				posts[i].ListLength = int(float64(posts[i].ListLength) * factor)
				posts[i].MaxScore *= factor
				posts[i].Epoch = epoch
			}
			if _, err := p.Directory().Publish(posts); err != nil {
				return fmt.Errorf("sim: publish inflated posts: %w", err)
			}
		default:
			return fmt.Errorf("sim: unknown event kind %d", e.Kind)
		}
		return nil
	}

	var recallSum float64
	recallN := 0
	for qi, q := range queries {
		if withFaults {
			for _, e := range sc.Events {
				if e.Before == qi {
					if err := fire(e); err != nil {
						return nil, err
					}
				}
			}
		}
		initiator := pickInitiator(net, faulty, qi)
		if initiator == nil {
			return nil, fmt.Errorf("sim: scenario %q killed every peer", sc.Name)
		}
		out := QueryOutcome{Index: qi, Terms: q.Terms}
		ctx := context.Background()
		var trace *telemetry.Trace
		if sc.Telemetry {
			// Trace IDs are the query indexes, so replays of the same
			// scenario produce comparable trace sets.
			trace = telemetry.NewTrace(fmt.Sprintf("q%d", qi), "search")
			ctx = telemetry.WithSpan(ctx, trace.Root())
		}
		qStart := time.Now()
		res, err := searchWatchdog(ctx, initiator, q.Terms, minerva.SearchOptions{
			K:             sc.K,
			MergeK:        sc.MergeK,
			MaxPeers:      sc.MaxPeers,
			Retry:         sc.Retry,
			NoReroute:     sc.NoReroute,
			Budget:        sc.Budget,
			TopKStreaming: sc.TopKStreaming,
			ChunkSize:     sc.ChunkSize,
		})
		out.Elapsed = time.Since(qStart)
		out.Trace = trace.Canonical()
		if withFaults && sc.LatencyBound > 0 && out.Elapsed > sc.LatencyBound {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"query %d: latency %v exceeded declared bound %v", qi, out.Elapsed, sc.LatencyBound))
		}
		switch {
		case err == errWatchdog:
			r.Violations = append(r.Violations, fmt.Sprintf("query %d: no completion within %v (deadlock?)", qi, queryWatchdog))
			r.Outcomes = append(r.Outcomes, out)
			continue
		case err != nil:
			// A search-level error (e.g. the whole directory fraction
			// unreachable) is a legal degraded outcome — recorded, never
			// swallowed.
			out.Err = err.Error()
			r.Outcomes = append(r.Outcomes, out)
			recallN++
			continue
		}
		out.Errors = res.Errors
		out.Rerouted = res.Rerouted
		out.Planned = res.Plan.Peers
		out.BudgetExpired = res.BudgetExpired
		for _, doc := range res.Results {
			out.Docs = append(out.Docs, doc.DocID)
		}
		out.Recall = ir.RelativeRecall(res.Results, net.ReferenceTopK(q.Terms, sc.K, false))
		recallSum += out.Recall
		recallN++
		// Invariant: a peer the plan selected and that is crash-marked
		// cannot have answered — it must be in the error report (or have
		// been replaced, which also goes through the error report).
		reported := make(map[core.PeerID]bool, len(res.Errors))
		for _, pe := range res.Errors {
			reported[pe.Peer] = true
		}
		for _, planned := range res.Plan.Peers {
			if faulty.Crashed(string(planned)) && !reported[planned] {
				r.Violations = append(r.Violations, fmt.Sprintf(
					"query %d: crashed peer %s selected but absent from Errors (silent shrink)", qi, planned))
			}
		}
		r.Outcomes = append(r.Outcomes, out)
	}
	if recallN > 0 {
		r.Recall = recallSum / float64(recallN)
	}
	if withFaults && sc.CheckLostPosts {
		r.LostPosts = countLostPosts(net, faulty)
		if r.LostPosts > 0 {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"%d directory posts of live peers permanently lost", r.LostPosts))
		}
	}
	if sc.Adaptive != nil {
		r.AdaptiveFlagged = map[string]string{}
		for _, p := range net.Peers {
			if faulty.Crashed(p.Name()) {
				continue
			}
			for peer, reason := range p.Adaptive().Flagged() {
				r.AdaptiveFlagged[string(peer)] = reason
			}
		}
	}
	r.Schedule = faulty.ScheduleString()
	if sc.Breakers != nil {
		r.BreakerTrace = breakerTrace(net)
	}
	if registry != nil {
		snap := registry.Snapshot()
		r.Metrics = &snap
	}
	return r, nil
}

// cacheParityViolations compares a cached run against its uncached twin
// query by query: the read cache promises to be semantically invisible,
// so Docs (merged result docIDs), Planned (routing decision), canonical
// Trace bytes, and search-level error text must all match exactly.
func cacheParityViolations(cached, uncached *Report) []string {
	var v []string
	if len(cached.Outcomes) != len(uncached.Outcomes) {
		return []string{fmt.Sprintf("cache parity: %d outcomes cached vs %d uncached",
			len(cached.Outcomes), len(uncached.Outcomes))}
	}
	for i := range cached.Outcomes {
		c, u := &cached.Outcomes[i], &uncached.Outcomes[i]
		if !equalUint64s(c.Docs, u.Docs) {
			v = append(v, fmt.Sprintf("cache parity: query %d merged docs diverge (%d cached vs %d uncached)",
				i, len(c.Docs), len(u.Docs)))
		}
		if !equalPeerIDs(c.Planned, u.Planned) {
			v = append(v, fmt.Sprintf("cache parity: query %d routing plans diverge", i))
		}
		if c.Trace != u.Trace {
			v = append(v, fmt.Sprintf("cache parity: query %d canonical traces diverge", i))
		}
		if c.Err != u.Err {
			v = append(v, fmt.Sprintf("cache parity: query %d errors diverge (%q vs %q)", i, c.Err, u.Err))
		}
	}
	return v
}

// adaptiveParityViolations compares an adaptive run against its
// identically-configured replay query by query: the prior is promised
// to be a deterministic function of the observations recorded so far,
// so Docs, Planned peers, canonical Trace bytes, and error text must
// all match exactly across replays.
func adaptiveParityViolations(run, replay *Report) []string {
	var v []string
	if len(run.Outcomes) != len(replay.Outcomes) {
		return []string{fmt.Sprintf("adaptive parity: %d outcomes vs %d in replay",
			len(run.Outcomes), len(replay.Outcomes))}
	}
	for i := range run.Outcomes {
		a, b := &run.Outcomes[i], &replay.Outcomes[i]
		if !equalUint64s(a.Docs, b.Docs) {
			v = append(v, fmt.Sprintf("adaptive parity: query %d merged docs diverge across replays", i))
		}
		if !equalPeerIDs(a.Planned, b.Planned) {
			v = append(v, fmt.Sprintf("adaptive parity: query %d routing plans diverge across replays", i))
		}
		if a.Trace != b.Trace {
			v = append(v, fmt.Sprintf("adaptive parity: query %d canonical traces diverge across replays", i))
		}
		if a.Err != b.Err {
			v = append(v, fmt.Sprintf("adaptive parity: query %d errors diverge (%q vs %q)", i, a.Err, b.Err))
		}
	}
	return v
}

// topKParityViolations checks the streaming protocol's differential
// promises: against the pull twin, every query's merged docs, routing
// plan, lost-peer set, and search-level error must match exactly (the
// threshold protocol trades bytes, never results); against the
// streaming replay, every query's canonical trace must be byte-
// identical (chunk counts and early-stop decisions are deterministic).
func topKParityViolations(stream, pull, replay *Report) []string {
	var v []string
	if len(stream.Outcomes) != len(pull.Outcomes) || len(stream.Outcomes) != len(replay.Outcomes) {
		return []string{fmt.Sprintf("topk parity: %d outcomes streaming vs %d pull vs %d replay",
			len(stream.Outcomes), len(pull.Outcomes), len(replay.Outcomes))}
	}
	for i := range stream.Outcomes {
		s, p, r := &stream.Outcomes[i], &pull.Outcomes[i], &replay.Outcomes[i]
		if !equalUint64s(s.Docs, p.Docs) {
			v = append(v, fmt.Sprintf("topk parity: query %d merged docs diverge (%d streaming vs %d pull)",
				i, len(s.Docs), len(p.Docs)))
		}
		if !equalPeerIDs(s.Planned, p.Planned) {
			v = append(v, fmt.Sprintf("topk parity: query %d routing plans diverge", i))
		}
		if !equalLostPeers(s.Errors, p.Errors) {
			v = append(v, fmt.Sprintf("topk parity: query %d lost-peer sets diverge (%d streaming vs %d pull)",
				i, len(s.Errors), len(p.Errors)))
		}
		if s.Err != p.Err {
			v = append(v, fmt.Sprintf("topk parity: query %d errors diverge (%q vs %q)", i, s.Err, p.Err))
		}
		if s.Trace != r.Trace {
			v = append(v, fmt.Sprintf("topk parity: query %d streaming replay traces diverge", i))
		}
		if !equalUint64s(s.Docs, r.Docs) {
			v = append(v, fmt.Sprintf("topk parity: query %d streaming replay docs diverge", i))
		}
	}
	return v
}

// equalLostPeers compares the peers two error reports name (attempt
// counts legitimately differ across chunk sizes — a peer that dies
// mid-stream has answered earlier chunks). Both reports are sorted by
// peer, so positional comparison is set comparison.
func equalLostPeers(a, b []minerva.PerPeerError) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Peer != b[i].Peer {
			return false
		}
	}
	return true
}

func equalUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPeerIDs(a, b []core.PeerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// breakerTrace renders every peer's breaker transition trace in peer
// order — canonical, so two identically-seeded runs produce identical
// bytes.
func breakerTrace(net *minerva.Network) string {
	var b []byte
	for _, p := range net.Peers {
		br := p.Breakers()
		if br == nil {
			continue
		}
		trace := br.TraceString()
		if trace == "" {
			continue
		}
		b = append(b, '[')
		b = append(b, p.Name()...)
		b = append(b, "]\n"...)
		b = append(b, trace...)
	}
	return string(b)
}

// pickInitiator rotates the initiating peer through the workload,
// skipping crashed peers deterministically.
func pickInitiator(net *minerva.Network, faulty *transport.Faulty, qi int) *minerva.Peer {
	n := len(net.Peers)
	for off := 0; off < n; off++ {
		p := net.Peers[(qi+off)%n]
		if !faulty.Crashed(p.Name()) {
			return p
		}
	}
	return nil
}

// errWatchdog marks a query that outlived the watchdog.
var errWatchdog = fmt.Errorf("sim: query watchdog expired")

// searchWatchdog runs one search under the deadlock watchdog.
func searchWatchdog(ctx context.Context, p *minerva.Peer, terms []string, opts minerva.SearchOptions) (*minerva.SearchResult, error) {
	type outcome struct {
		res *minerva.SearchResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := p.SearchContext(ctx, terms, opts)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(queryWatchdog)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
		return nil, errWatchdog
	}
}
