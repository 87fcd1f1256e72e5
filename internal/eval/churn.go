package eval

import (
	"fmt"
	"strings"

	"iqn/internal/minerva"
	"iqn/internal/sim"
	"iqn/internal/transport"
)

// This file measures routing under churn — the operating condition the
// paper's introduction claims P2P systems must tolerate ("resilience to
// failures and churn"). A fraction of peers is killed mid-workload; the
// experiment reports recall before the failures, immediately after
// (stale directory posts still name dead peers), and after one
// maintenance round (republish + prune). A second part sweeps sustained
// graceful join/leave churn over ring sizes and rates.

// churnKillFraction is the share of peers killed mid-workload.
const churnKillFraction = 0.2

// ChurnKill is the outcome of the kill-and-heal part. It marshals under
// its Go field names: BENCH_churn.json consumers read these keys.
type ChurnKill struct {
	// Killed is the number of peers killed.
	Killed int
	// Before, Degraded and Healed are the micro-averaged recalls at the
	// three phases.
	Before, Degraded, Healed float64
	// Pruned is the number of stale posts maintenance removed.
	Pruned int
}

// ChurnResult is both parts of the churn experiment.
type ChurnResult struct {
	Kill  *ChurnKill       `json:"churn"`
	Sweep []ChurnSweepCell `json:"churnSweep"`
}

// churnKill measures recall before a crash wave, right after it, and
// after one maintenance round.
func (tb *testbed) churnKill() (*ChurnKill, error) {
	inmem := transport.NewInMem()
	// Churn without replication loses directory fractions by design.
	net, err := tb.deploy(inmem, minerva.Config{Replicas: systemsReplicas})
	if err != nil {
		return nil, err
	}
	defer net.Close()
	measure := func(alive []*minerva.Peer) (float64, error) {
		recall, err := tb.recall(net, alive, minerva.SearchOptions{MaxPeers: systemsMaxPeers}, nil)
		if err != nil {
			return 0, fmt.Errorf("eval: churn %w", err)
		}
		return recall, nil
	}
	result := &ChurnKill{Killed: int(churnKillFraction * float64(len(net.Peers)))}
	if result.Before, err = measure(net.Peers); err != nil {
		return nil, err
	}
	dead, alive := tb.victims(net, result.Killed)
	for _, p := range dead {
		inmem.SetPartitioned(p.Name(), true)
	}
	healRing(alive)
	if result.Degraded, err = measure(alive); err != nil {
		return nil, err
	}
	// One maintenance round: republish + prune the dead peers' posts.
	result.Pruned = net.MaintenanceRound(1)
	if result.Healed, err = measure(alive); err != nil {
		return nil, err
	}
	return result, nil
}

// ChurnSweepCell is one (ring size, churn rate) cell of the sustained-
// churn sweep: recall under live join/leave churn against the same
// workload's churn-free twin, the worst directory convergence lag, the
// handoff traffic, and the permanently-lost-post count (zero is the
// graceful-churn guarantee).
type ChurnSweepCell struct {
	Peers          int     `json:"peers"`
	Rate           float64 `json:"rate"`
	Joins          int     `json:"joins"`
	Leaves         int     `json:"leaves"`
	Recall         float64 `json:"recall"`
	StaticRecall   float64 `json:"staticRecall"`
	ConvergenceLag int     `json:"convergenceLag"`
	HandoffPosts   int     `json:"handoffPosts"`
	HandoffBytes   int     `json:"handoffBytes"`
	LostPosts      int     `json:"lostPosts"`
}

// The sustained-churn sweep's grid, and the directory replication it
// runs at.
var (
	churnRingSizes = []int{16, 64}
	churnRates     = []float64{0.05, 0.20}
)

const churnSweepReplicas = 2

// churnSweep measures IQN under sustained graceful churn: for every
// (ring size, rate) cell it boots a ring, drives the query workload
// while a seeded churn schedule joins and gracefully departs peers
// between rounds, and reports recall, the churn-free twin's recall on
// the identical workload (the static baseline), the worst convergence
// lag of any single membership change, the handoff traffic, and the
// lost-post count of the final directory sweep. The whole sweep is a
// pure function of its arguments.
func churnSweep(ringSizes []int, rates []float64, queries, k int, seed int64) ([]ChurnSweepCell, error) {
	var cells []ChurnSweepCell
	for _, peers := range ringSizes {
		// A quarter of the ring again as join headroom keeps departures
		// matched by arrivals deep into the run.
		total := peers + peers/4
		for _, rate := range rates {
			events := sim.ChurnEvents(sim.ChurnConfig{
				Seed:         seed + int64(peers)*1000 + int64(rate*100),
				Queries:      queries,
				InitialPeers: peers,
				TotalPeers:   total,
				Rate:         rate,
			})
			sc := sim.Scenario{
				Name:           fmt.Sprintf("churn-sweep-%dp-%02.0f%%", peers, rate*100),
				Seed:           seed,
				NumDocs:        40 * total,
				VocabSize:      16 * total,
				Fragments:      total,
				Window:         2,
				Offset:         1,
				Queries:        queries,
				K:              k,
				MaxPeers:       systemsMaxPeers,
				Replicas:       churnSweepReplicas,
				InitialPeers:   peers,
				CheckLostPosts: true,
				Events:         events,
			}
			rep, err := sim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("eval: churn sweep %s: %w", sc.Name, err)
			}
			static := sc
			static.Events = nil
			static.CheckLostPosts = false
			staticRep, err := sim.Run(static)
			if err != nil {
				return nil, fmt.Errorf("eval: churn sweep %s static twin: %w", sc.Name, err)
			}
			cells = append(cells, ChurnSweepCell{
				Peers:          peers,
				Rate:           rate,
				Joins:          rep.Joins,
				Leaves:         rep.Leaves,
				Recall:         rep.Recall,
				StaticRecall:   staticRep.Recall,
				ConvergenceLag: rep.ConvergenceLag,
				HandoffPosts:   rep.HandoffPosts,
				HandoffBytes:   rep.HandoffBytes,
				LostPosts:      rep.LostPosts,
			})
		}
	}
	return cells, nil
}

// Table renders both parts as text.
func (r *ChurnResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Churn: %d peers killed mid-workload\n", r.Kill.Killed)
	fmt.Fprintf(&b, "recall before      %0.3f\n", r.Kill.Before)
	fmt.Fprintf(&b, "recall degraded    %0.3f (stale posts still name dead peers)\n", r.Kill.Degraded)
	fmt.Fprintf(&b, "recall healed      %0.3f (after republish + prune of %d posts)\n", r.Kill.Healed, r.Kill.Pruned)
	b.WriteString("# Churn sweep: sustained graceful join/leave, recall vs the churn-free twin\n")
	fmt.Fprintf(&b, "%6s %6s %6s %7s %7s %8s %5s %9s %10s %5s\n",
		"peers", "rate", "joins", "leaves", "recall", "static", "lag", "handoff", "bytes", "lost")
	for _, c := range r.Sweep {
		fmt.Fprintf(&b, "%6d %5.0f%% %6d %7d %7.3f %8.3f %5d %9d %10d %5d\n",
			c.Peers, c.Rate*100, c.Joins, c.Leaves, c.Recall, c.StaticRecall,
			c.ConvergenceLag, c.HandoffPosts, c.HandoffBytes, c.LostPosts)
	}
	return b.String()
}
