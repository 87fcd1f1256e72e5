package sim

import (
	"math/rand"
	"sort"

	"iqn/internal/chord"
	"iqn/internal/directory"
	"iqn/internal/minerva"
	"iqn/internal/transport"
)

// This file holds the churn machinery: measured ring convergence after
// membership changes, the final lost-post sweep, and the deterministic
// seeded churn-schedule generator that sustains configurable join/leave
// rates across a workload.

// maxConvergeRounds caps the stabilization rounds one membership change
// may consume; a ring still broken at the cap saturates the reported
// ConvergenceLag (and shows up downstream as lost posts or recall
// collapse — the invariants that actually judge the run).
const maxConvergeRounds = 32

// fingerFixBatch is how many finger-table entries each live peer
// repairs per membership change on large rings, rotating through the
// table across events. Full-table repair is O(M · n · log n) lookups —
// affordable on test-sized rings, prohibitive at 1,000 peers, and
// unnecessary for correctness: lookups tolerate stale fingers through
// their avoid-set restarts, so fingers only need to heal eventually.
const fingerFixBatch = 4

// fingerFullFixBelow is the live-ring size up to which convergence
// repairs the whole finger table (the pre-churn behavior small
// deterministic scenarios rely on).
const fingerFullFixBelow = 64

// alivePeers returns the network's peers that are not crash-marked, in
// network order.
func alivePeers(net *minerva.Network, faulty *transport.Faulty) []*minerva.Peer {
	var alive []*minerva.Peer
	for _, p := range net.Peers {
		if !faulty.Crashed(p.Name()) {
			alive = append(alive, p)
		}
	}
	return alive
}

// ringBroken reports whether any live peer's successor deviates from
// the next live peer on the ring (by node ID). Local state reads only —
// no RPCs.
func ringBroken(alive []*minerva.Peer) bool {
	if len(alive) <= 1 {
		return false
	}
	sorted := append([]*minerva.Peer(nil), alive...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Node().Self().ID < sorted[j].Node().Self().ID
	})
	for i, p := range sorted {
		want := sorted[(i+1)%len(sorted)].Node().Self().Addr
		if p.Node().Successor().Addr != want {
			return true
		}
	}
	return false
}

// convergeAlive runs network-wide stabilization rounds until every live
// peer's successor is the next live ID, returning the number of rounds
// taken — the scenario's directory convergence lag for one membership
// change. Rounds are capped at maxConvergeRounds (a still-broken ring
// returns the cap). Finger repair afterwards is full-table on small
// rings and a rotating batch on large ones.
func convergeAlive(net *minerva.Network, faulty *transport.Faulty) int {
	alive := alivePeers(net, faulty)
	if len(alive) == 0 {
		return 0
	}
	rounds := 0
	for ringBroken(alive) && rounds < maxConvergeRounds {
		for _, p := range alive {
			p.Node().Stabilize()
		}
		rounds++
	}
	if len(alive) <= fingerFullFixBelow {
		for _, p := range alive {
			p.Node().FixAllFingers()
		}
	} else {
		// Deterministic rotating batch: which window gets repaired depends
		// only on how many rounds the convergence took.
		start := rounds * fingerFixBatch
		for _, p := range alive {
			for j := 0; j < fingerFixBatch; j++ {
				p.Node().FixFinger((start + j) % chord.M)
			}
		}
	}
	return rounds
}

// lostPostSampleLimit is the per-peer term sample of the final lost-post
// sweep on large rings; small rings are swept exhaustively.
const lostPostSampleLimit = 3

// countLostPosts sweeps the directory for every live peer's published
// terms and counts the posts that no longer resolve: the term's
// PeerList either cannot be fetched at all or does not contain the
// peer's own post. Under graceful churn the count must be zero — every
// departure handed its fraction over and every join pulled its range
// before going visible. On rings above fingerFullFixBelow live peers
// the sweep samples lostPostSampleLimit terms per peer (deterministic:
// first/median/last of the sorted term list); below that it checks
// every term.
func countLostPosts(net *minerva.Network, faulty *transport.Faulty) int {
	alive := alivePeers(net, faulty)
	sampled := len(alive) > fingerFullFixBelow
	lost := 0
	for _, p := range alive {
		idx := p.Index()
		if idx == nil {
			continue
		}
		terms := append([]string(nil), idx.Terms()...)
		sort.Strings(terms)
		if len(terms) == 0 {
			continue
		}
		probe := terms
		if sampled && len(terms) > lostPostSampleLimit {
			probe = []string{terms[0], terms[len(terms)/2], terms[len(terms)-1]}
		}
		for _, term := range probe {
			lists, _, err := p.Directory().FetchAllReportOpts([]string{term}, 0, directory.FetchOptions{})
			if err != nil {
				lost++
				continue
			}
			found := false
			for _, post := range lists[term] {
				if post.Peer == p.Name() {
					found = true
					break
				}
			}
			if !found {
				lost++
			}
		}
	}
	return lost
}

// ChurnConfig shapes a generated churn schedule (ChurnEvents).
type ChurnConfig struct {
	// Seed drives the schedule's RNG — the schedule is a pure function
	// of this config.
	Seed int64
	// Queries is the workload length; churn rounds fire before queries
	// 1..Queries-1 (query 0 always sees the freshly-booted network).
	Queries int
	// InitialPeers is the number of peers live at boot (must match the
	// scenario's InitialPeers).
	InitialPeers int
	// TotalPeers is the collection-pool size; joiners are drawn in order
	// from the unbooted slots [InitialPeers, TotalPeers).
	TotalPeers int
	// Rate is the per-round, per-peer departure probability — 0.05 is
	// the classic "5% churn per round".
	Rate float64
	// CrashFraction is the fraction of departures that crash (Kill)
	// instead of leaving gracefully (Leave). Zero: pure graceful churn.
	CrashFraction float64
	// MinLive stops departures when the live population would drop below
	// it (default max(4, InitialPeers/2)).
	MinLive int
}

// ChurnEvents generates a deterministic membership-churn schedule:
// before every query round, each live peer departs with probability
// Rate (gracefully, or as a crash for a CrashFraction of departures),
// and every departure is matched by an arrival from the unbooted pool
// while it lasts — sustained churn at a roughly constant population.
// The schedule is a pure function of the config, so two runs of the
// same scenario replay identical membership histories.
func ChurnEvents(cfg ChurnConfig) []Event {
	minLive := cfg.MinLive
	if minLive <= 0 {
		minLive = cfg.InitialPeers / 2
		if minLive < 4 {
			minLive = 4
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	live := make([]bool, cfg.TotalPeers)
	for i := 0; i < cfg.InitialPeers && i < cfg.TotalPeers; i++ {
		live[i] = true
	}
	liveCount := cfg.InitialPeers
	nextJoiner := cfg.InitialPeers
	var events []Event
	for round := 1; round < cfg.Queries; round++ {
		departed := 0
		for i := 0; i < cfg.TotalPeers; i++ {
			if !live[i] || liveCount-1 < minLive {
				continue
			}
			if rng.Float64() >= cfg.Rate {
				continue
			}
			kind := Leave
			if cfg.CrashFraction > 0 && rng.Float64() < cfg.CrashFraction {
				kind = Kill
			}
			events = append(events, Event{Before: round, Kind: kind, Peer: i})
			live[i] = false
			liveCount--
			departed++
		}
		for j := 0; j < departed && nextJoiner < cfg.TotalPeers; j++ {
			events = append(events, Event{Before: round, Kind: Join, Peer: nextJoiner})
			live[nextJoiner] = true
			liveCount++
			nextJoiner++
		}
	}
	return events
}
