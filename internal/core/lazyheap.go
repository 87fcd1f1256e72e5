package core

// This file implements the Fast-IQN selection engine: a CELF-style
// lazy-greedy Select-Best-Peer.
//
// The paper's loop re-estimates every remaining candidate's novelty each
// iteration. This engine instead works with two sound per-candidate
// score *ceilings* supplied by the reference state (see
// referenceState.ceiling and staticCeiling):
//
//   - a static ceiling, immutable for the whole call, that dominates the
//     candidate's score against any reference; and
//   - a current ceiling, refined from the candidate's last-evaluation
//     snapshot, that dominates the candidate's score against the present
//     reference.
//
// Before the first round the engine sorts the candidates once into a
// priority order by (static score ceiling descending, sorted index
// ascending). Each round walks that order: candidates whose current
// ceiling could still beat the round's champion are re-evaluated, one at
// a time, and the walk stops at the first candidate whose *static*
// ceiling no longer contends — every candidate after it in the order has
// a static ceiling that is no larger (or ties with a larger index,
// losing the tie-break), and a true score no larger than that, so the
// rest of the order is dominated wholesale. A round therefore touches
// only the prefix of plausibly-best candidates; the ones that never
// plausibly rank first are never combined or scored at all, including in
// the first round.
//
// Ceilings never underestimate the true score, and the champion merge
// uses the same (highest score, then lowest sorted index) ordering as a
// full rescan, so the plans are byte-identical to the rescan the core
// tests keep as their oracle. That holds as long as scores are never
// NaN, which holds whenever the quality factors are not NaN (powWeight
// maps q ≤ 0 to 0, never to a negative Pow base) and synopsis
// cardinalities are finite. An Options.Prior factor preserves all of
// this: it is folded into the per-candidate quality factor qf, which
// multiplies the exact score and every ceiling alike, so bounds scale
// with scores and stay sound. A candidate whose qf is NaN (a NaN quality
// from untrusted post statistics, or a NaN prior) cannot be ordered
// against the others, so it is dropped before routing — counted by
// route.nan_rejected and annotated on the span — and a negative
// NoveltyWeight is refused outright, because powWeight is then
// anti-monotone in novelty and ceilings would turn into floors.

import (
	"fmt"
	"math"
	"sort"
)

// runIQN drives the IQN loop from an optional initiator seed.
func runIQN(q Query, initiator *Candidate, cands []Candidate, opts Options) (Plan, error) {
	var seeds []*Candidate
	if initiator != nil {
		seeds = append(seeds, initiator)
	}
	return runIQNSeeded(q, seeds, cands, opts)
}

// runIQNSeeded is runIQN with an arbitrary list of reference seeds: every
// seed is absorbed into the reference synopsis before the first
// Select-Best-Peer round, exactly as the initiator is. Reroute uses this
// to resume a routing decision mid-flight — the peers a degraded query
// already reached become seeds, so replacements are scored by the novelty
// they add beyond what the query already covered.
func runIQNSeeded(q Query, seeds []*Candidate, cands []Candidate, opts Options) (Plan, error) {
	if err := validateQuery(q); err != nil {
		return Plan{}, err
	}
	if nw := opts.noveltyWeight(); nw < 0 {
		return Plan{}, fmt.Errorf("core: NoveltyWeight %g is negative: novelty ceilings would become floors", nw)
	}
	state, err := newReferenceState(q, opts)
	if err != nil {
		return Plan{}, err
	}
	for _, s := range seeds {
		if _, err := state.absorb(-1, s); err != nil {
			return Plan{}, err
		}
	}
	sorted, qf := rankable(cands, opts)
	state.prepare(len(sorted))
	e := &engine{
		state: state,
		cands: sorted,
		qf:    qf,
		opts:  opts,
	}
	return e.run()
}

// qualityFactor is the candidate's constant score multiplier,
// quality^qw times the Options.Prior factor (negative priors clamp to 0,
// +Inf to MaxFloat64). Folding the prior in here scales the exact score
// (evalOne) and every ceiling built from qf (buildOrder, selectBest) by
// the same factor, so the lazy bounds stay sound under any prior.
func qualityFactor(c *Candidate, opts Options) float64 {
	f := powWeight(c.Quality, opts.qualityWeight())
	if opts.Prior != nil {
		p := opts.Prior(c.Peer)
		if p < 0 {
			p = 0
		} else if math.IsInf(p, 1) {
			p = math.MaxFloat64
		}
		f *= p
	}
	return f
}

// rankable sorts the candidates and computes their quality factors. A
// candidate whose factor is NaN cannot be ranked, so it is rejected: it
// is never planned, route.nan_rejected counts it and the span names it
// (nan_rejected=<peer>). Rejection happens before sorting because a NaN
// quality would also scramble the sort order of the others; the plan is
// therefore exactly the one routing without that candidate yields.
func rankable(cands []Candidate, opts Options) ([]Candidate, []float64) {
	sorted := sortCandidates(cands)
	qf := make([]float64, len(sorted))
	poisoned := false
	for i := range sorted {
		qf[i] = qualityFactor(&sorted[i], opts)
		poisoned = poisoned || math.IsNaN(qf[i])
	}
	if !poisoned {
		return sorted, qf
	}
	kept := make([]Candidate, 0, len(cands))
	for i := range cands {
		if math.IsNaN(qualityFactor(&cands[i], opts)) {
			opts.Metrics.Counter("route.nan_rejected").Inc()
			opts.Span.Setf("nan_rejected", "%s", cands[i].Peer)
			continue
		}
		kept = append(kept, cands[i])
	}
	sorted = sortCandidates(kept)
	qf = qf[:len(sorted)]
	for i := range sorted {
		qf[i] = qualityFactor(&sorted[i], opts)
	}
	return sorted, qf
}

// engine holds the per-Route selection state. All per-candidate slices
// are indexed by position in the sorted candidate slice.
type engine struct {
	state referenceState
	cands []Candidate
	opts  Options

	alive       []bool    // not yet selected
	qf          []float64 // qualityFactor, immutable per candidate
	nov         []float64 // last computed novelty
	score       []float64 // last computed exact score qf·nov^nw
	staticBound []float64 // immutable score ceilings qf·staticCeiling^nw
	order       []int     // indices by (staticBound desc, index asc)
	left        int       // number of alive candidates

	evals      int // novelty evaluations performed (telemetry)
	roundEvals int // evaluations in the current round (telemetry)
}

func (e *engine) run() (Plan, error) {
	n := len(e.cands)
	e.alive = make([]bool, n)
	e.nov = make([]float64, n)
	e.score = make([]float64, n)
	for i := range e.alive {
		e.alive[i] = true
	}
	e.left = n
	e.buildOrder()

	var plan Plan
	lazySkips := 0
	for e.left > 0 {
		if e.opts.MaxPeers > 0 && len(plan.Peers) >= e.opts.MaxPeers {
			break
		}
		if e.opts.TargetCoverage > 0 && e.state.covered() >= e.opts.TargetCoverage {
			break
		}
		alive := e.left
		e.roundEvals = 0
		best, err := e.selectBest()
		if err != nil {
			return Plan{}, err
		}
		c := &e.cands[best]
		// Aggregate-Synopses: fold the winner into the reference.
		if _, err := e.state.absorb(best, c); err != nil {
			return Plan{}, err
		}
		plan.Peers = append(plan.Peers, c.Peer)
		plan.Steps = append(plan.Steps, Step{
			Peer:    c.Peer,
			Quality: c.Quality,
			Novelty: e.nov[best],
			Score:   e.score[best],
			Covered: e.state.covered(),
		})
		e.alive[best] = false
		e.left--
		skipped := alive - e.roundEvals
		lazySkips += skipped
		if iter := e.opts.Span.Child("iter"); iter != nil {
			iter.Setf("peer", "%s", c.Peer)
			iter.Setf("quality", "%.6g", c.Quality)
			iter.Setf("novelty", "%.6g", e.nov[best])
			iter.Setf("score", "%.6g", e.score[best])
			iter.Setf("covered", "%.6g", e.state.covered())
			iter.SetInt("evaluated", int64(e.roundEvals))
			iter.SetInt("skipped", int64(skipped))
			iter.End()
		}
	}
	if m := e.opts.Metrics; m != nil {
		m.Counter("route.selections").Add(int64(len(plan.Peers)))
		m.Counter("route.candidates").Add(int64(n))
		m.Counter("route.evaluations").Add(int64(e.evals))
		m.Counter("route.lazy_skips").Add(int64(lazySkips))
	}
	return plan, nil
}

// buildOrder computes the immutable static score ceilings and the walk
// order (staticBound descending, index ascending — the order in which
// a full rescan's tie-break would prefer equally-bounded candidates).
func (e *engine) buildOrder() {
	n := len(e.cands)
	nw := e.opts.noveltyWeight()
	e.staticBound = make([]float64, n)
	e.order = make([]int, n)
	for i := range e.cands {
		e.staticBound[i] = scoreBound(e.qf[i], powWeight(e.state.staticCeiling(i, &e.cands[i]), nw))
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		return e.staticBound[e.order[a]] > e.staticBound[e.order[b]]
	})
}

// selectBest runs one Select-Best-Peer round and returns the winner's
// index.
func (e *engine) selectBest() (int, error) {
	// Ceilings are computed against this round's reference, which only
	// changes on absorb — after the round.
	nw := e.opts.noveltyWeight()
	champ := -1
	for _, i := range e.order {
		if !e.alive[i] {
			continue
		}
		if !e.contends(e.staticBound[i], i, champ) {
			// The order is (staticBound desc, index asc): every candidate
			// from here on has a static ceiling that is smaller, or equal
			// with a larger index, so none can beat the champion.
			break
		}
		cur := scoreBound(e.qf[i], powWeight(e.state.ceiling(i, &e.cands[i]), nw))
		if !e.contends(cur, i, champ) {
			continue
		}
		if err := e.evalOne(i, nw); err != nil {
			return -1, err
		}
		champ = e.better(champ, i)
	}
	return champ, nil
}

// scoreBound multiplies the quality factor into a novelty ceiling. A
// zero quality factor forces the bound to the exact score 0 even against
// an infinite ceiling (0·∞ would be NaN and poison the walk order).
func scoreBound(qf, novBound float64) float64 {
	if qf == 0 {
		return 0
	}
	return qf * novBound
}

// contends reports whether a score ceiling keeps a candidate in the
// running against the current champion: a higher ceiling always does, an
// equal one only from a lower sorted index (which would win the tie).
func (e *engine) contends(bound float64, i, champ int) bool {
	if champ < 0 {
		return true
	}
	return bound > e.score[champ] || (bound == e.score[champ] && i < champ)
}

// better merges a freshly evaluated candidate into the championship under
// the full rescan's ordering: strictly higher score wins, ties keep
// the lower sorted index.
func (e *engine) better(champ, i int) int {
	if champ < 0 || e.score[i] > e.score[champ] || (e.score[i] == e.score[champ] && i < champ) {
		return i
	}
	return champ
}

// evalOne computes one candidate's novelty and exact score.
func (e *engine) evalOne(i int, nw float64) error {
	e.evals++
	e.roundEvals++
	nov, err := e.state.novelty(i, &e.cands[i])
	if err != nil {
		return err
	}
	e.nov[i] = nov
	e.score[i] = e.qf[i] * powWeight(nov, nw)
	return nil
}
