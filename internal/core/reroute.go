package core

// Reroute re-runs Select-Best-Peer after query-time peer failures — the
// failure-handling side of IQN routing. When a peer selected by Route
// turns out to be unreachable at forwarding time, the initiator has
// already paid for the directory PeerLists, so picking a replacement
// costs no further remote interaction: seed the reference synopsis with
// the initiator plus every peer the query *did* reach (reached), exclude
// the failed and already-tried peers from the candidate set, and run the
// same lazy-greedy selection for up to opts.MaxPeers replacements.
//
// reached entries are the same Candidate values Route saw; their
// synopses describe what the query already covers, so replacements are
// ranked by quality × the novelty they add beyond the surviving peers —
// not beyond the dead ones, whose results never arrived.
//
// cands must already exclude the failed and previously selected peers;
// Reroute does not filter. Determinism matches Route: identical inputs
// produce identical plans.
func Reroute(q Query, initiator *Candidate, reached []Candidate, cands []Candidate, opts Options) (Plan, error) {
	seeds := make([]*Candidate, 0, len(reached)+1)
	if initiator != nil {
		seeds = append(seeds, initiator)
	}
	for i := range reached {
		seeds = append(seeds, &reached[i])
	}
	return runIQNSeeded(q, seeds, cands, opts)
}
