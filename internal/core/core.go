// Package core implements IQN routing, the paper's primary contribution
// (Section 5): an iterative query-routing algorithm that reconciles the
// expected result *quality* of candidate peers (a CORI collection score)
// with their expected *novelty* (how many result documents they add
// beyond what already-selected peers cover), estimated purely from the
// compact per-term synopses peers publish to the DHT directory.
//
// Each iteration performs two steps:
//
//   - Select-Best-Peer: rank the remaining candidates by
//     quality × novelty against the current reference synopsis and pick
//     the best;
//   - Aggregate-Synopses: fold the chosen peer's synopsis into the
//     reference synopsis, so the next iteration measures novelty against
//     everything selected so far (including the query initiator's own
//     local result, which seeds the reference).
//
// The loop stops when a peer budget is exhausted or the estimated covered
// result cardinality reaches a target. Multi-keyword queries are handled
// by either of the paper's two synopsis-aggregation strategies
// (Section 6): per-peer (combine a peer's term synopses first, then
// estimate one novelty) or per-term (estimate novelty per term and sum).
// Section 7.1's score-conscious histogram variant plugs in as a third
// aggregation mode.
package core

import (
	"fmt"
	"sort"

	"iqn/internal/histogram"
	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
)

// PeerID names a peer; in MINERVA it doubles as the peer's transport
// address.
type PeerID string

// QueryType selects the execution model of Section 6.1, which determines
// how per-term synopses combine into a per-peer synopsis.
type QueryType int

const (
	// Disjunctive queries match documents containing any query term;
	// per-term synopses combine by union.
	Disjunctive QueryType = iota
	// Conjunctive queries require all query terms; per-term synopses
	// combine by intersection (exact for Bloom filters, the conservative
	// max-heuristic for MIPs, and the crude union fallback for hash
	// sketches, which have no known intersection).
	Conjunctive
)

// String names the query type.
func (t QueryType) String() string {
	if t == Conjunctive {
		return "conjunctive"
	}
	return "disjunctive"
}

// Query is the routing input: the keywords (or attribute-value
// conditions) and the execution model.
type Query struct {
	// Terms are the distinct query keywords.
	Terms []string
	// Type is the execution model.
	Type QueryType
}

// Candidate is everything the router knows about one prospective peer,
// assembled from the directory's PeerList entries for the query terms
// before the first iteration. Routing never contacts candidate peers —
// the paper's central efficiency property.
type Candidate struct {
	// Peer identifies the candidate.
	Peer PeerID
	// Quality is the peer's collection score for the query (CORI in the
	// paper, Section 5.1). Any non-negative scale works; only ratios
	// between candidates matter.
	Quality float64
	// TermSynopses holds the peer's published synopsis per query term.
	// Missing terms are treated as empty sets.
	TermSynopses map[string]synopsis.Set
	// TermCardinalities holds the published index-list length per query
	// term (the |S_B| of the novelty formula). Missing entries fall back
	// to the synopsis estimate.
	TermCardinalities map[string]float64
	// TermHistograms optionally holds the Section 7.1 score-histogram
	// synopses; used only when Options.UseHistograms is set.
	TermHistograms map[string]*histogram.Histogram
}

// AggregationMode selects how multi-keyword queries aggregate per-term
// synopses (Section 6).
type AggregationMode int

const (
	// PerPeer combines each peer's term synopses into one query-specific
	// synopsis first (Section 6.2).
	PerPeer AggregationMode = iota
	// PerTerm keeps term-specific reference synopses and sums the
	// term-wise novelties (Section 6.3) — no intersections needed even
	// for conjunctive queries.
	PerTerm
)

// String names the aggregation mode.
func (m AggregationMode) String() string {
	if m == PerTerm {
		return "per-term"
	}
	return "per-peer"
}

// Options tune a Route call.
type Options struct {
	// MaxPeers stops after selecting this many peers (≤ 0: no limit, all
	// candidates are ranked).
	MaxPeers int
	// TargetCoverage stops once the estimated covered result cardinality
	// reaches this value (≤ 0: ignored) — the paper's "combined query
	// result has at least a certain number of documents" criterion.
	TargetCoverage float64
	// Aggregation selects per-peer or per-term synopsis aggregation.
	Aggregation AggregationMode
	// QualityWeight and NoveltyWeight are the exponents of the ranking
	// score quality^qw · novelty^nw. Both default to 1 (the paper ranks
	// by the plain product). Set QualityWeight to 0 for novelty-only
	// selection, NoveltyWeight to 0 to degrade IQN to quality-only. A
	// negative NoveltyWeight is an error.
	QualityWeight, NoveltyWeight float64
	// UseHistograms enables the Section 7.1 score-conscious novelty
	// estimation from Candidate.TermHistograms. Implies per-term
	// reference maintenance.
	UseHistograms bool
	// Span, when set, receives one "iter" child per Select-Best-Peer
	// round annotated with the winner's quality/novelty/score/covered
	// values and the round's evaluated vs lazily-skipped candidate
	// counts. Nil (the default) traces nothing; the annotations are
	// deterministic functions of the routing inputs, never of timing.
	Span *telemetry.Span
	// Metrics, when set, counts routing work: route.selections,
	// route.candidates, route.evaluations (novelty estimations actually
	// performed), route.lazy_skips (evaluations the lazy engine's
	// ceilings proved unnecessary), and route.nan_rejected (candidates
	// dropped because their quality factor was NaN). Nil leaves routing
	// uncounted.
	Metrics *telemetry.Registry
	// Prior, when set, returns a per-peer multiplier folded into each
	// candidate's quality factor before ranking, so selection ranks by
	// prior · quality^qw · novelty^nw. It biases routing toward peers
	// that historically delivered merged top-k entries (and away from
	// peers caught publishing inflated synopses) without touching the
	// synopsis-side novelty machinery: because the factor is constant per
	// candidate, every lazy score ceiling scales with the exact score and
	// Fast-IQN stays byte-identical to a full rescan with the same
	// prior. The function must be deterministic for the duration of the
	// call and should return finite non-negative values: negative
	// results are clamped to 0, +Inf is clamped to MaxFloat64, and a NaN
	// rejects that candidate (counted by route.nan_rejected). Nil means
	// no prior (factor 1 everywhere).
	Prior func(PeerID) float64
}

func (o Options) qualityWeight() float64 {
	if o.QualityWeight == 0 && o.NoveltyWeight == 0 {
		return 1
	}
	return o.QualityWeight
}

func (o Options) noveltyWeight() float64 {
	if o.QualityWeight == 0 && o.NoveltyWeight == 0 {
		return 1
	}
	return o.NoveltyWeight
}

// Step records one IQN iteration for diagnostics and experiments.
type Step struct {
	// Peer is the selected peer.
	Peer PeerID
	// Quality and Novelty are the factors at selection time.
	Quality, Novelty float64
	// Score is the combined ranking score quality^qw · novelty^nw,
	// scaled by the Options.Prior factor when one is set.
	Score float64
	// Covered is the estimated cardinality of the covered result space
	// after absorbing the peer.
	Covered float64
}

// Plan is a routing decision: the peers to forward the query to, in
// selection order, with per-iteration diagnostics.
type Plan struct {
	// Peers lists the selected peers in selection order.
	Peers []PeerID
	// Steps carries the per-iteration diagnostics, parallel to Peers.
	Steps []Step
}

// sortCandidates orders candidates deterministically (by descending
// quality, then peer ID) so ties break identically run-to-run.
func sortCandidates(cands []Candidate) []Candidate {
	// Sort an index permutation rather than the slice: Candidate is a
	// large struct, and moving indices instead of structs keeps the sort
	// out of the routing hot path. The final index tie-break makes the
	// order fully deterministic even for duplicate (quality, peer) keys.
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := &cands[idx[a]], &cands[idx[b]]
		if ca.Quality != cb.Quality {
			return ca.Quality > cb.Quality
		}
		if ca.Peer != cb.Peer {
			return ca.Peer < cb.Peer
		}
		return idx[a] < idx[b]
	})
	out := make([]Candidate, len(cands))
	for i, j := range idx {
		out[i] = cands[j]
	}
	return out
}

// validateQuery rejects routing without terms.
func validateQuery(q Query) error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("core: query has no terms")
	}
	return nil
}
