package core

import (
	"math"
	"math/bits"

	"iqn/internal/histogram"
	"iqn/internal/synopsis"
)

// Route runs the IQN routing algorithm (Section 5.1) and returns the
// query execution plan.
//
// initiator, when non-nil, describes the query initiator's own local
// result (or its local per-term synopses) and seeds the reference
// synopsis, exactly as the paper prescribes; pass nil for an initiator
// with no local collection. cands are the prospective peers assembled
// from the directory PeerLists. The input slices and candidates are not
// modified.
//
// Route uses the Fast-IQN lazy-greedy selection engine (see lazyheap.go):
// per iteration it re-estimates novelty only for candidates whose stale
// score ceiling could still beat the current champion. The plan is
// byte-identical to a full rescan of every candidate per iteration.
// Candidates whose quality factor is NaN are rejected (never planned),
// and a negative Options.NoveltyWeight is an error.
//
// Route only manipulates synopses — no candidate peer is contacted.
func Route(q Query, initiator *Candidate, cands []Candidate, opts Options) (Plan, error) {
	return runIQN(q, initiator, cands, opts)
}

// powWeight computes x^w with the routing conventions: weight 0 switches
// the factor off (returns 1), and non-positive bases score 0 so a peer
// with zero novelty or quality never outranks one with any.
func powWeight(x, w float64) float64 {
	if w == 0 {
		return 1
	}
	if x <= 0 {
		return 0
	}
	if w == 1 {
		return x
	}
	return math.Pow(x, w)
}

// referenceState is the mutable "result space already covered" side of
// IQN: novelty estimation against it (Select-Best-Peer) and absorption of
// a selected peer (Aggregate-Synopses). Implementations differ in how
// multi-keyword queries aggregate (Section 6) and whether score
// histograms refine the estimates (Section 7.1).
//
// idx is the candidate's position in the engine's sorted candidate slice
// and keys the per-candidate caches and lazy-evaluation snapshots; pass
// -1 for candidates outside the slice (the initiator), which bypasses
// all caching. A state is single-threaded.
type referenceState interface {
	// prepare sizes the per-candidate caches for n candidates.
	prepare(n int)
	// novelty estimates how many new result documents the candidate
	// would add beyond the current reference, and snapshots the evidence
	// ceiling needs under idx.
	novelty(idx int, c *Candidate) (float64, error)
	// absorb folds the candidate into the reference and returns the
	// plain (unweighted) novelty it contributed.
	absorb(idx int, c *Candidate) (float64, error)
	// covered returns the estimated cardinality of the covered result
	// space — the stopping-criterion quantity.
	covered() float64
	// ceiling returns a sound upper bound on what novelty(idx, …) would
	// return now, computed without touching the reference synopses: from
	// the snapshot of the candidate's last evaluation when one exists,
	// and otherwise from staticCeiling.
	ceiling(idx int, c *Candidate) float64
	// staticCeiling returns a reference-independent upper bound on the
	// candidate's novelty against any reference — the sum of its
	// published term cardinalities, which every novelty estimate is
	// clamped to — and therefore also dominates every value ceiling can
	// return for the candidate. +Inf when no sound static bound exists.
	staticCeiling(idx int, c *Candidate) float64
}

// newReferenceState picks the implementation for the options.
func newReferenceState(q Query, opts Options) (referenceState, error) {
	if opts.UseHistograms || opts.Aggregation == PerTerm {
		return &termState{q: q, hist: opts.UseHistograms, refs: map[string]synopsis.Set{}, cards: map[string]float64{}, monotone: true}, nil
	}
	return &perPeerState{q: q}, nil
}

// isBloom reports whether the synopsis is a Bloom filter — the one family
// whose novelty estimate against a growing reference is provably monotone
// non-increasing (the reference's bits only get set, so the set-bit count
// of b ∧ ¬ref never increases), making a stale novelty a sound ceiling.
func isBloom(s synopsis.Set) bool {
	_, ok := s.(*synopsis.Bloom)
	return ok
}

// combinedSynopsis caches a candidate's query-specific synopsis.
type combinedSynopsis struct {
	set  synopsis.Set
	card float64
}

// ppSnap is the evidence perPeerState keeps from a candidate's last
// novelty evaluation so it can bound the candidate's current novelty
// without re-reading any synopsis.
type ppSnap struct {
	have bool
	// nilRef records that the reference was empty at evaluation time, in
	// which case the evaluated novelty equals the candidate's cardinality
	// and can only shrink afterwards.
	nilRef bool
	nov    float64 // novelty at evaluation time
	card   float64 // candidate's combined cardinality (immutable)
	// MIPs detail: with r = matches/n at evaluation and the positions
	// that matched, the only way the candidate can lose a match is the
	// reference minimum decreasing at a matched position — which absorb
	// records in maskLog — so a lower bound on the current resemblance
	// (and with it an upper bound on novelty) follows from counting the
	// matched positions changed since.
	mips  bool
	epoch int     // len(maskLog) at evaluation time
	r     float64 // resemblance at evaluation time
	match uint64  // matched positions (first min(n, 64))
	n     int     // compared positions
}

// perPeerState implements Section 6.2: one combined synopsis per peer,
// one reference synopsis overall.
type perPeerState struct {
	q    Query
	ref  synopsis.Set
	card float64
	// refIsBloom marks the monotone family (see isBloom).
	refIsBloom bool
	// refShaky is set when a MIPs reference shrank to a shorter
	// candidate's length: positions vanish, previously computed match
	// masks no longer line up, and MIPs ceilings fall back to the
	// candidate cardinality.
	refShaky bool
	combined []combinedSynopsis
	haveComb []bool
	snap     []ppSnap
	// static caches the pre-evaluation novelty ceilings (see staticBound).
	static     []float64
	haveStatic []bool
	// maskLog records, per absorb, which of the reference's first 64
	// MIPs positions strictly decreased (all-ones for non-MIPs absorbs
	// and the initial clone). suffix caches the suffix ORs.
	maskLog []uint64
	suffix  []uint64
}

func (s *perPeerState) prepare(n int) {
	s.combined = make([]combinedSynopsis, n)
	s.haveComb = make([]bool, n)
	s.snap = make([]ppSnap, n)
	s.static = make([]float64, n)
	s.haveStatic = make([]bool, n)
}

func (s *perPeerState) combine(idx int, c *Candidate) (combinedSynopsis, error) {
	if idx >= 0 && idx < len(s.haveComb) && s.haveComb[idx] {
		return s.combined[idx], nil
	}
	set, card, err := combinePerPeer(*c, s.q)
	if err != nil {
		return combinedSynopsis{}, err
	}
	cs := combinedSynopsis{set: set, card: card}
	if idx >= 0 && idx < len(s.haveComb) {
		s.combined[idx] = cs
		s.haveComb[idx] = true
	}
	return cs, nil
}

func (s *perPeerState) novelty(idx int, c *Candidate) (float64, error) {
	cs, err := s.combine(idx, c)
	if err != nil {
		return 0, err
	}
	sn := ppSnap{have: true, card: cs.card}
	if cs.set == nil {
		s.record(idx, sn) // novelty 0 forever: ceiling card == 0
		return 0, nil
	}
	if s.ref == nil {
		sn.nilRef = true
		sn.nov = cs.card
		s.record(idx, sn)
		return cs.card, nil // empty reference: everything is new
	}
	if refM, ok := s.ref.(*synopsis.MIPs); ok {
		if bM, ok := cs.set.(*synopsis.MIPs); ok {
			// Same estimate as EstimateNovelty's resemblance path, with
			// the match evidence captured for ceiling.
			r, match, n, err := refM.ResemblanceDetail(bM)
			if err != nil {
				return 0, err
			}
			nov := synopsis.NoveltyFromResemblance(r, s.card, cs.card)
			sn.nov = nov
			sn.mips = n > 0 && n <= 64
			sn.epoch = len(s.maskLog)
			sn.r, sn.match, sn.n = r, match, n
			s.record(idx, sn)
			return nov, nil
		}
	}
	nov, err := synopsis.EstimateNovelty(s.ref, cs.set, s.card, cs.card)
	if err != nil {
		return 0, err
	}
	sn.nov = nov
	s.record(idx, sn)
	return nov, nil
}

func (s *perPeerState) record(idx int, sn ppSnap) {
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx] = sn
	}
}

func (s *perPeerState) ceiling(idx int, c *Candidate) float64 {
	if idx < 0 || idx >= len(s.snap) || !s.snap[idx].have {
		return s.staticCeiling(idx, c)
	}
	sn := &s.snap[idx]
	switch {
	case sn.nilRef:
		// Evaluated against an empty reference: nov == card then, and
		// novelty never exceeds the candidate's cardinality.
		return sn.nov
	case sn.mips && !s.refShaky:
		// Matched positions lost since the evaluation are bounded by the
		// matched ∩ changed positions; resemblance is bounded below by
		// the surviving match fraction, and the novelty formula is
		// monotone (decreasing in r, and we use the current, larger
		// reference cardinality which only tightens the overlap bound in
		// our favor as an upper bound on novelty).
		lost := bits.OnesCount64(sn.match & s.changedSince(sn.epoch))
		r := sn.r - float64(lost)/float64(sn.n)
		if r < 0 {
			r = 0
		}
		return synopsis.NoveltyFromResemblance(r, s.card, sn.card)
	case s.refIsBloom:
		return sn.nov
	default:
		// Hash-sketch families: inclusion-exclusion novelty is not
		// monotone, but it never exceeds the candidate's cardinality.
		return sn.card
	}
}

// staticCeiling is the pre-evaluation novelty ceiling: combinePerPeer
// clamps the combined cardinality of a disjunctive (or single-term)
// combination to the sum of the candidate's published term
// cardinalities, and every novelty estimate is clamped to the combined
// cardinality, so that sum dominates the candidate's novelty against any
// reference (and with it every snapshot ceiling, which never exceeds the
// combined cardinality either). A multi-term conjunctive combination's
// cardinality is an unclamped intersection estimate with no such static
// bound, so those candidates stay unprunable until first evaluated.
func (s *perPeerState) staticCeiling(idx int, c *Candidate) float64 {
	if s.q.Type == Conjunctive && len(s.q.Terms) > 1 {
		return math.Inf(1)
	}
	if idx < 0 || idx >= len(s.static) {
		return sumTermCards(c, s.q)
	}
	if !s.haveStatic[idx] {
		s.static[idx] = sumTermCards(c, s.q)
		s.haveStatic[idx] = true
	}
	return s.static[idx]
}

// sumTermCards mirrors combinePerPeer's cardinality upper bound: the
// sum of the candidate's term cardinalities, missing terms contributing
// nothing.
func sumTermCards(c *Candidate, q Query) float64 {
	var sum float64
	for _, t := range q.Terms {
		sum += termCard(c, t)
	}
	return sum
}

// changedSince ORs the per-absorb change masks recorded after the given
// epoch. The suffix-OR cache is rebuilt at most once per absorb.
func (s *perPeerState) changedSince(epoch int) uint64 {
	if epoch >= len(s.maskLog) {
		return 0
	}
	if len(s.suffix) != len(s.maskLog) {
		s.suffix = append(s.suffix[:0], s.maskLog...)
		for i := len(s.suffix) - 2; i >= 0; i-- {
			s.suffix[i] |= s.suffix[i+1]
		}
	}
	return s.suffix[epoch]
}

func (s *perPeerState) absorb(idx int, c *Candidate) (float64, error) {
	nov, err := s.novelty(idx, c)
	if err != nil {
		return 0, err
	}
	cs, err := s.combine(idx, c)
	if err != nil {
		return 0, err
	}
	if cs.set == nil {
		return 0, nil
	}
	if s.ref == nil {
		s.ref = cs.set.Clone()
		s.refIsBloom = isBloom(s.ref)
		s.maskLog = append(s.maskLog, ^uint64(0))
	} else if refM, ok := s.ref.(*synopsis.MIPs); ok {
		changed, shrunk, err := refM.UnionTracked(cs.set)
		if err != nil {
			return 0, err
		}
		if shrunk {
			s.refShaky = true
		}
		s.maskLog = append(s.maskLog, changed)
	} else {
		if err := s.ref.UnionInPlace(cs.set); err != nil {
			return 0, err
		}
		s.maskLog = append(s.maskLog, ^uint64(0))
	}
	// The covered cardinality grows by the selected peer's estimated
	// novelty: additive updates are monotone and avoid re-estimating the
	// whole union each round.
	s.card += nov
	return nov, nil
}

func (s *perPeerState) covered() float64 { return s.card }

// termSnap is termState's lazy-evaluation snapshot: the summed novelty
// at evaluation time plus a static upper bound (the sum of termBound over
// the query terms) that holds against any reference.
type termSnap struct {
	have  bool
	nov   float64
	bound float64
}

// termState implements Section 6.3: term-specific reference synopses
// σ_prev(t), candidate novelty summed over terms. No intersections are
// needed even for conjunctive queries — the trade-off the paper
// highlights for this strategy. With hist set (Options.UseHistograms) it
// is Section 7.1's score-conscious variant: a candidate's novelty for a
// term with a published histogram is the score-weighted sum over its
// cells, so peers whose *high-scoring* documents are new win; terms
// without a histogram keep the plain synopsis at full weight.
type termState struct {
	q        Query
	hist     bool
	refs     map[string]synopsis.Set
	cards    map[string]float64
	monotone bool
	snap     []termSnap
	// static caches the pre-evaluation ceilings (see staticCeiling).
	static     []float64
	haveStatic []bool
}

func (s *termState) prepare(n int) {
	s.snap = make([]termSnap, n)
	s.static = make([]float64, n)
	s.haveStatic = make([]bool, n)
}

// histogram returns the candidate's histogram for the term, or nil when
// histograms are off or the candidate published none.
func (s *termState) histogram(c *Candidate, t string) *histogram.Histogram {
	if !s.hist {
		return nil
	}
	return c.TermHistograms[t]
}

// termCard is the candidate's plain term cardinality: the published list
// length when posted, the synopsis estimate otherwise, 0 without a
// synopsis.
func termCard(c *Candidate, t string) float64 {
	cs := c.TermSynopses[t]
	if cs == nil {
		return 0
	}
	if card, ok := c.TermCardinalities[t]; ok {
		return card
	}
	return cs.Cardinality()
}

// cellWeightSum is a histogram's cell-weighted document count — its
// weighted novelty against an empty reference.
func cellWeightSum(h *histogram.Histogram) float64 {
	var w float64
	n := len(h.Cells)
	for i, cell := range h.Cells {
		w += histogram.CellWeight(i, n) * float64(cell.Count)
	}
	return w
}

// plainNovelty is the term novelty of the candidate's plain synopsis.
func (s *termState) plainNovelty(c *Candidate, t string) (float64, error) {
	cs := c.TermSynopses[t]
	if cs == nil {
		return 0, nil
	}
	card := termCard(c, t)
	ref := s.refs[t]
	if ref == nil {
		return card, nil
	}
	return synopsis.EstimateNovelty(ref, cs, s.cards[t], card)
}

// termNovelty is the ranking novelty of one term: weighted over the
// histogram cells when the candidate has a histogram, plain otherwise.
func (s *termState) termNovelty(c *Candidate, t string) (float64, error) {
	h := s.histogram(c, t)
	if h == nil {
		return s.plainNovelty(c, t)
	}
	ref := s.refs[t]
	if ref == nil {
		return cellWeightSum(h), nil
	}
	return histogram.WeightedNovelty(ref, s.cards[t], h)
}

// termBound is a reference-independent upper bound on termNovelty: every
// plain estimate is clamped at the term cardinality, and WeightedNovelty
// caps each cell at its exact count, so the cell-weighted count sum
// dominates it against any reference (and equals it against an empty
// one).
func (s *termState) termBound(c *Candidate, t string) float64 {
	if h := s.histogram(c, t); h != nil {
		return cellWeightSum(h)
	}
	return termCard(c, t)
}

func (s *termState) novelty(idx int, c *Candidate) (float64, error) {
	var sum, bound float64
	for _, t := range s.q.Terms {
		n, err := s.termNovelty(c, t)
		if err != nil {
			return 0, err
		}
		sum += n
		bound += s.termBound(c, t)
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx] = termSnap{have: true, nov: sum, bound: bound}
	}
	return sum, nil
}

// ceiling applies the snapshot rule: while every absorbed synopsis has
// been a Bloom filter (or a term's reference is still empty), each term's
// novelty is monotone non-increasing and the stale value is a sound
// ceiling; otherwise the snapshot's static bound is.
func (s *termState) ceiling(idx int, c *Candidate) float64 {
	if idx < 0 || idx >= len(s.snap) || !s.snap[idx].have {
		return s.staticCeiling(idx, c)
	}
	if s.monotone {
		return s.snap[idx].nov
	}
	return s.snap[idx].bound
}

// staticCeiling is the sum of termBound over the query terms, cached per
// candidate: the same bound the snapshots carry, computable without
// touching any synopsis.
func (s *termState) staticCeiling(idx int, c *Candidate) float64 {
	cached := idx >= 0 && idx < len(s.static)
	if cached && s.haveStatic[idx] {
		return s.static[idx]
	}
	var sum float64
	for _, t := range s.q.Terms {
		sum += s.termBound(c, t)
	}
	if cached {
		s.static[idx], s.haveStatic[idx] = sum, true
	}
	return sum
}

// absorb folds the candidate into the term references: its plain
// synopsis, or the flattened histogram (a fresh set the state may own)
// when one is read. The covered count grows by the plain novelty either
// way — a document is covered regardless of its score band.
func (s *termState) absorb(idx int, c *Candidate) (float64, error) {
	var total float64
	for _, t := range s.q.Terms {
		var set synopsis.Set
		var n float64
		var err error
		owned := false
		if h := s.histogram(c, t); h != nil {
			if set, err = h.Flatten(); err != nil {
				return 0, err
			}
			owned = true
			n = float64(h.Count())
			if ref := s.refs[t]; ref != nil && set != nil {
				n, err = synopsis.EstimateNovelty(ref, set, s.cards[t], n)
			}
		} else {
			set = c.TermSynopses[t]
			n, err = s.plainNovelty(c, t)
		}
		if err != nil {
			return 0, err
		}
		if set == nil {
			continue
		}
		if !isBloom(set) {
			s.monotone = false
		}
		if ref := s.refs[t]; ref == nil {
			if !owned {
				set = set.Clone()
			}
			s.refs[t] = set
		} else if err := ref.UnionInPlace(set); err != nil {
			return 0, err
		}
		s.cards[t] += n
		total += n
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx].have = false // absorbed: snapshot no longer describes it
	}
	return total, nil
}

func (s *termState) covered() float64 {
	// Term-wise sums over-count documents matching several terms; this
	// is the same deliberate crudeness as the per-term novelty sum
	// (Section 6.3), adequate for relative stopping decisions. Summing
	// in query-term order (not map order) keeps the float result
	// bit-reproducible run to run.
	var sum float64
	for _, t := range s.q.Terms {
		sum += s.cards[t]
	}
	return sum
}
