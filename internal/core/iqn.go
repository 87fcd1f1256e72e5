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
// score ceiling could still beat the current champion, and fans the
// estimations out over Options.Parallelism goroutines. The plan is
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
// all caching. novelty may be called concurrently for distinct idx ≥ 0
// (each call writes only its own index); prepare, absorb and ceiling are
// single-threaded.
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
	switch {
	case opts.UseHistograms:
		return &histogramState{q: q, refs: map[string]synopsis.Set{}, cards: map[string]float64{}, monotone: true}, nil
	case opts.Aggregation == PerTerm:
		return &perTermState{q: q, refs: map[string]synopsis.Set{}, cards: map[string]float64{}, monotone: true}, nil
	default:
		return &perPeerState{q: q}, nil
	}
}

// isBloom reports whether the synopsis is a Bloom filter — the one family
// whose novelty estimate against a growing reference is provably monotone
// non-increasing (the reference's bits only get set, so the set-bit count
// of b ∧ ¬ref never increases), making a stale novelty a sound ceiling.
func isBloom(s synopsis.Set) bool {
	_, ok := s.(*synopsis.Bloom)
	return ok
}

// unionRef folds set into *ref in place when the family supports it and
// by allocate-and-replace otherwise. The resulting reference is
// value-identical either way. *ref must be owned by the caller (a Clone,
// never a candidate's synopsis). MIPs references go through unionRefMIPs
// instead, for the change evidence.
func unionRef(ref *synopsis.Set, set synopsis.Set) error {
	switch r := (*ref).(type) {
	case *synopsis.MIPs:
		_, _, err := r.UnionInPlace(set)
		return err
	case synopsis.InPlaceUnioner:
		return r.UnionInPlace(set)
	default:
		u, err := (*ref).Union(set)
		if err != nil {
			return err
		}
		*ref = u
		return nil
	}
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
// published per-term list length when posted, the synopsis estimate
// otherwise, missing terms contributing nothing.
func sumTermCards(c *Candidate, q Query) float64 {
	var sum float64
	for _, t := range q.Terms {
		set := c.TermSynopses[t]
		if set == nil {
			continue
		}
		if card, ok := c.TermCardinalities[t]; ok {
			sum += card
		} else {
			sum += set.Cardinality()
		}
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
		changed, shrunk, err := refM.UnionInPlace(cs.set)
		if err != nil {
			return 0, err
		}
		if shrunk {
			s.refShaky = true
		}
		s.maskLog = append(s.maskLog, changed)
	} else {
		if err := unionRef(&s.ref, cs.set); err != nil {
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

// termSnap is the lazy-evaluation snapshot of the per-term and histogram
// states: the summed novelty at evaluation time plus a static upper
// bound (the sum of the candidate's published term cardinalities, or the
// cell-weighted counts for histograms) that holds against any reference.
type termSnap struct {
	have  bool
	nov   float64
	bound float64
}

// snapCeiling is the shared snapshot-ceiling rule of perTermState and
// histogramState: while every absorbed synopsis has been a Bloom filter
// (or a term's reference is still empty), each term's novelty is
// monotone non-increasing and the stale value is a sound ceiling;
// otherwise fall back to the snapshot's static bound. ok is false when
// the candidate has no snapshot.
func snapCeiling(snap []termSnap, idx int, monotone bool) (float64, bool) {
	if idx < 0 || idx >= len(snap) || !snap[idx].have {
		return 0, false
	}
	if monotone {
		return snap[idx].nov, true
	}
	return snap[idx].bound, true
}

// termStatics caches per-candidate pre-evaluation ceilings: the same
// reference-independent bound the snapshots carry (every term novelty is
// clamped at the term cardinality, weighted novelty at the cell-weighted
// count sum), computable without touching any synopsis.
type termStatics struct {
	static     []float64
	haveStatic []bool
}

func (ts *termStatics) prepare(n int) {
	ts.static = make([]float64, n)
	ts.haveStatic = make([]bool, n)
}

func (ts *termStatics) get(idx int) (float64, bool) {
	if idx < 0 || idx >= len(ts.static) || !ts.haveStatic[idx] {
		return 0, false
	}
	return ts.static[idx], true
}

func (ts *termStatics) set(idx int, v float64) {
	if idx >= 0 && idx < len(ts.static) {
		ts.static[idx] = v
		ts.haveStatic[idx] = true
	}
}

// perTermState implements Section 6.3: term-specific reference synopses
// σ_prev(t), candidate novelty summed over terms. No intersections are
// needed even for conjunctive queries — the trade-off the paper
// highlights for this strategy.
type perTermState struct {
	q        Query
	refs     map[string]synopsis.Set
	cards    map[string]float64
	monotone bool
	snap     []termSnap
	statics  termStatics
}

func (s *perTermState) prepare(n int) {
	s.snap = make([]termSnap, n)
	s.statics.prepare(n)
}

func (s *perTermState) termCard(c *Candidate, t string) float64 {
	cs := c.TermSynopses[t]
	if cs == nil {
		return 0
	}
	if card, ok := c.TermCardinalities[t]; ok {
		return card
	}
	return cs.Cardinality()
}

func (s *perTermState) termNovelty(c *Candidate, t string) (float64, error) {
	cs := c.TermSynopses[t]
	if cs == nil {
		return 0, nil
	}
	card, ok := c.TermCardinalities[t]
	if !ok {
		card = cs.Cardinality()
	}
	ref := s.refs[t]
	if ref == nil {
		return card, nil
	}
	return synopsis.EstimateNovelty(ref, cs, s.cards[t], card)
}

func (s *perTermState) novelty(idx int, c *Candidate) (float64, error) {
	var sum, bound float64
	for _, t := range s.q.Terms {
		n, err := s.termNovelty(c, t)
		if err != nil {
			return 0, err
		}
		sum += n
		bound += s.termCard(c, t)
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx] = termSnap{have: true, nov: sum, bound: bound}
	}
	return sum, nil
}

func (s *perTermState) ceiling(idx int, c *Candidate) float64 {
	if cl, ok := snapCeiling(s.snap, idx, s.monotone); ok {
		return cl
	}
	return s.staticCeiling(idx, c)
}

func (s *perTermState) staticCeiling(idx int, c *Candidate) float64 {
	if v, ok := s.statics.get(idx); ok {
		return v
	}
	var sum float64
	for _, t := range s.q.Terms {
		sum += s.termCard(c, t)
	}
	s.statics.set(idx, sum)
	return sum
}

func (s *perTermState) absorb(idx int, c *Candidate) (float64, error) {
	var total float64
	for _, t := range s.q.Terms {
		n, err := s.termNovelty(c, t)
		if err != nil {
			return 0, err
		}
		cs := c.TermSynopses[t]
		if cs == nil {
			continue
		}
		if !isBloom(cs) {
			s.monotone = false
		}
		if ref := s.refs[t]; ref == nil {
			s.refs[t] = cs.Clone()
		} else {
			if err := unionRef(&ref, cs); err != nil {
				return 0, err
			}
			s.refs[t] = ref
		}
		s.cards[t] += n
		total += n
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx].have = false // absorbed: snapshot no longer describes it
	}
	return total, nil
}

func (s *perTermState) covered() float64 {
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

// histogramState implements Section 7.1: per-term reference synopses as
// in perTermState, but candidate novelty is the score-weighted sum over
// the candidate's histogram cells, so peers whose *high-scoring*
// documents are new win. Candidates without a histogram for a term fall
// back to their plain synopsis at full weight.
type histogramState struct {
	q        Query
	refs     map[string]synopsis.Set
	cards    map[string]float64
	monotone bool
	snap     []termSnap
	statics  termStatics
}

func (s *histogramState) prepare(n int) {
	s.snap = make([]termSnap, n)
	s.statics.prepare(n)
}

func (s *histogramState) termNovelty(c *Candidate, t string) (weighted, plain float64, err error) {
	h := c.TermHistograms[t]
	if h == nil {
		// Plain-synopsis fallback, weight 1.
		cs := c.TermSynopses[t]
		if cs == nil {
			return 0, 0, nil
		}
		card, ok := c.TermCardinalities[t]
		if !ok {
			card = cs.Cardinality()
		}
		ref := s.refs[t]
		if ref == nil {
			return card, card, nil
		}
		n, err := synopsis.EstimateNovelty(ref, cs, s.cards[t], card)
		return n, n, err
	}
	ref := s.refs[t]
	if ref == nil {
		// Empty reference: every cell is fully novel.
		var w float64
		n := len(h.Cells)
		for i, cell := range h.Cells {
			w += histogram.CellWeight(i, n) * float64(cell.Count)
		}
		return w, float64(h.Count()), nil
	}
	w, err := histogram.WeightedNovelty(ref, s.cards[t], h)
	if err != nil {
		return 0, 0, err
	}
	flat, err := h.Flatten()
	if err != nil {
		return 0, 0, err
	}
	p, err := synopsis.EstimateNovelty(ref, flat, s.cards[t], float64(h.Count()))
	if err != nil {
		return 0, 0, err
	}
	return w, p, nil
}

// termBound is a reference-independent upper bound on the term's weighted
// novelty: WeightedNovelty caps each cell at its exact count, so the
// cell-weighted count sum dominates it against any reference (and equals
// it against an empty one); the plain fallback is capped by the term
// cardinality.
func (s *histogramState) termBound(c *Candidate, t string) float64 {
	if h := c.TermHistograms[t]; h != nil {
		var w float64
		n := len(h.Cells)
		for i, cell := range h.Cells {
			w += histogram.CellWeight(i, n) * float64(cell.Count)
		}
		return w
	}
	cs := c.TermSynopses[t]
	if cs == nil {
		return 0
	}
	if card, ok := c.TermCardinalities[t]; ok {
		return card
	}
	return cs.Cardinality()
}

func (s *histogramState) novelty(idx int, c *Candidate) (float64, error) {
	var sum, bound float64
	for _, t := range s.q.Terms {
		w, _, err := s.termNovelty(c, t)
		if err != nil {
			return 0, err
		}
		sum += w
		bound += s.termBound(c, t)
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx] = termSnap{have: true, nov: sum, bound: bound}
	}
	return sum, nil
}

func (s *histogramState) ceiling(idx int, c *Candidate) float64 {
	if cl, ok := snapCeiling(s.snap, idx, s.monotone); ok {
		return cl
	}
	return s.staticCeiling(idx, c)
}

func (s *histogramState) staticCeiling(idx int, c *Candidate) float64 {
	if v, ok := s.statics.get(idx); ok {
		return v
	}
	var sum float64
	for _, t := range s.q.Terms {
		sum += s.termBound(c, t)
	}
	s.statics.set(idx, sum)
	return sum
}

func (s *histogramState) absorb(idx int, c *Candidate) (float64, error) {
	var total float64
	for _, t := range s.q.Terms {
		_, plain, err := s.termNovelty(c, t)
		if err != nil {
			return 0, err
		}
		var flat synopsis.Set
		if h := c.TermHistograms[t]; h != nil {
			flat, err = h.Flatten()
			if err != nil {
				return 0, err
			}
		} else if cs := c.TermSynopses[t]; cs != nil {
			flat = cs.Clone()
		}
		if flat == nil {
			continue
		}
		if !isBloom(flat) {
			s.monotone = false
		}
		if ref := s.refs[t]; ref == nil {
			s.refs[t] = flat
		} else {
			if err := unionRef(&ref, flat); err != nil {
				return 0, err
			}
			s.refs[t] = ref
		}
		s.cards[t] += plain
		total += plain
	}
	if idx >= 0 && idx < len(s.snap) {
		s.snap[idx].have = false
	}
	return total, nil
}

func (s *histogramState) covered() float64 {
	var sum float64
	for _, t := range s.q.Terms {
		sum += s.cards[t]
	}
	return sum
}
