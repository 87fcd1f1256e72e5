package minerva

import (
	"sort"

	"iqn/internal/adapt"
	"iqn/internal/core"
	"iqn/internal/ir"
)

// This file is the glue between a search's execution outcome and the
// adaptive query log (internal/adapt): after a search merges, the
// initiator records which remote peers actually contributed entries to
// the merged top-k, alongside what the routing layer predicted
// (plan-step novelty) and what the directory claimed (the summed
// MaxScore seed bound candidate assembly computes for the streaming
// protocol — reused here as the peer's claimed score ceiling). The
// adapt.Store turns those observations into a per-peer routing prior
// and a divergence detector; search.go folds the prior back into
// Select-Best-Peer on the next query via core.Options.Prior.

// recordAdaptive logs one completed search into the adaptive store.
// Only remote peers appear as observations: the initiator's own
// contribution is not a routing decision the prior could improve.
// Failed streams and unanswered peers are absent from exec.deliveries
// and therefore contribute no observation — the breaker/reroute layers
// already own transient-failure policy, and a dead peer must not be
// mistaken for a lying one.
func (p *Peer) recordAdaptive(terms []string, plan core.Plan, s *searchScratch, exec execOutcome, merged []ir.Result, opts SearchOptions) {
	if len(exec.deliveries) == 0 {
		return
	}
	depth := opts.MergeK
	if depth <= 0 {
		depth = opts.k()
	}
	if depth > len(merged) {
		depth = len(merged)
	}
	// Each top-k doc carries one unit of credit, split evenly among the
	// peers that delivered it. Whole credit to every deliverer would
	// hand a replication group the same boost per member and pull the
	// prior toward redundant picks; whole credit to a single "winner"
	// would shadow a peer whose coverage spans several others'. The
	// even split keeps total credit equal to coverage, so share ranks
	// peers by how much of the top-k they genuinely account for.
	inTopK := make(map[uint64]bool, depth)
	for _, r := range merged[:depth] {
		inTopK[r.DocID] = true
	}
	holders := make(map[uint64]int, depth)
	for _, results := range exec.deliveries {
		for _, r := range results {
			if inTopK[r.DocID] {
				holders[r.DocID]++
			}
		}
	}
	predicted := make(map[core.PeerID]float64, len(plan.Steps))
	for _, step := range plan.Steps {
		predicted[step.Peer] = step.Novelty
	}
	peers := make([]core.PeerID, 0, len(exec.deliveries))
	for peer := range exec.deliveries {
		peers = append(peers, peer)
	}
	// The store's eviction and flagging logic is order-sensitive by
	// sequence number; sorting keeps the log a deterministic function of
	// the search's inputs, like every other replayable structure here.
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	obs := adapt.Observation{Terms: terms, Peers: make([]adapt.PeerObservation, 0, len(peers))}
	for _, peer := range peers {
		results := exec.deliveries[peer]
		claimed, _ := s.seedBound(peer)
		po := adapt.PeerObservation{
			Peer:             peer,
			PredictedNovelty: predicted[peer],
			ClaimedMax:       claimed,
			Delivered:        len(results),
		}
		for _, r := range results {
			if r.Score > po.DeliveredMax {
				po.DeliveredMax = r.Score
			}
			if n := holders[r.DocID]; n > 0 {
				po.Contributed += 1 / float64(n)
			}
		}
		obs.Peers = append(obs.Peers, po)
	}
	p.adaptive.Record(obs)
}

// Adaptive exposes the peer's adaptive store (nil when Config.Adaptive
// is unset) for inspection by tests, sim invariants, and eval.
func (p *Peer) Adaptive() *adapt.Store { return p.adaptive }
