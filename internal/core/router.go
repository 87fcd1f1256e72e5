package core

import (
	"fmt"
	"math"

	"iqn/internal/synopsis"
)

// Router is a reusable IQN routing engine: the Route and Reroute of one
// search, keeping every buffer Select-Best-Peer and Aggregate-Synopses
// build between calls. It holds the candidates' routing order and
// quality factors, the lazy engine's per-candidate slices, both
// reference states with their caches and term maps, and a slab of
// synopses it owns, which combined and reference synopses are copied
// into before anything folds into them. A warm route therefore
// allocates only its Plan.
//
// Plans are fresh memory and never alias the router; candidates and
// their synopses are read, never modified. A Router is for one
// goroutine at a time. The zero value is ready to use.
type Router struct {
	eng   engine
	pp    perPeerState
	ts    termState
	owned ownedSets
	seeds []*Candidate
	qfIn  []float64 // quality factors by input index
}

// Route runs the IQN routing algorithm on the router's buffers; see
// the package-level Route.
func (r *Router) Route(q Query, initiator *Candidate, cands []Candidate, opts Options) (Plan, error) {
	r.seeds = r.seeds[:0]
	if initiator != nil {
		r.seeds = append(r.seeds, initiator)
	}
	return r.run(q, cands, opts)
}

// Reroute picks replacements for failed peers on the router's buffers;
// see the package-level Reroute.
func (r *Router) Reroute(q Query, initiator *Candidate, reached []Candidate, cands []Candidate, opts Options) (Plan, error) {
	r.seeds = r.seeds[:0]
	if initiator != nil {
		r.seeds = append(r.seeds, initiator)
	}
	for i := range reached {
		r.seeds = append(r.seeds, &reached[i])
	}
	return r.run(q, cands, opts)
}

// Reset drops every reference the router holds into its last call's
// inputs (candidates, seeds, their synopses, the query and the
// Options' Prior, Span and Metrics) and keeps its own buffers. A
// pooled router is Reset before it goes back to its pool so it pins
// nothing of a finished search. Route and Reroute need no Reset
// between calls.
func (r *Router) Reset() {
	clear(r.seeds[:cap(r.seeds)])
	r.seeds = r.seeds[:0]
	r.eng.state, r.eng.cands, r.eng.opts = nil, nil, Options{}
	r.pp.q, r.ts.q = Query{}, Query{}
	clear(r.pp.combined[:cap(r.pp.combined)])
}

// run drives the IQN loop: every seed is absorbed into the reference
// before the first Select-Best-Peer round, then the lazy engine selects.
func (r *Router) run(q Query, cands []Candidate, opts Options) (Plan, error) {
	if err := validateQuery(q); err != nil {
		return Plan{}, err
	}
	if nw := opts.noveltyWeight(); nw < 0 {
		return Plan{}, fmt.Errorf("core: NoveltyWeight %g is negative: novelty ceilings would become floors", nw)
	}
	r.owned.reset()
	state := r.state(q, opts)
	for _, s := range r.seeds {
		if _, err := state.absorb(-1, s); err != nil {
			return Plan{}, err
		}
	}
	r.rank(cands, opts)
	state.prepare(len(r.eng.perm))
	r.eng.state, r.eng.cands, r.eng.opts = state, cands, opts
	return r.eng.run()
}

// state resets and returns the reference state the options pick.
func (r *Router) state(q Query, opts Options) referenceState {
	if opts.UseHistograms || opts.Aggregation == PerTerm {
		r.ts.reset(q, opts.UseHistograms, &r.owned)
		return &r.ts
	}
	r.pp.reset(q, &r.owned)
	return &r.pp
}

// rank fills the engine's routing order and quality factors. A
// candidate whose factor is NaN cannot be ranked, so it is rejected: it
// is never planned, route.nan_rejected counts it and the span names it
// (nan_rejected=<peer>). Rejection comes before sorting, because a NaN
// quality would also scramble the order of the others; the plan is
// therefore exactly the one routing without that candidate yields.
func (r *Router) rank(cands []Candidate, opts Options) {
	e := &r.eng
	r.qfIn = grown(r.qfIn, len(cands))
	e.perm = e.perm[:0]
	for i := range cands {
		f := qualityFactor(&cands[i], opts)
		if math.IsNaN(f) {
			opts.Metrics.Counter("route.nan_rejected").Inc()
			opts.Span.Setf("nan_rejected", "%s", cands[i].Peer)
			continue
		}
		r.qfIn[i] = f
		e.perm = append(e.perm, i)
	}
	sortByQuality(cands, e.perm)
	e.qf = grown(e.qf, len(e.perm))
	for k, i := range e.perm {
		e.qf[k] = r.qfIn[i]
	}
}

// ownedSets is the router's slab of synopses: copies of shared
// synopses that Aggregate-Synopses may fold into. Each route starts
// the slab over, and a slot keeps its memory for the next copy of the
// same family. A copy handed out stays valid until the next reset.
type ownedSets struct {
	sets []synopsis.Set
	used int
}

func (o *ownedSets) reset() { o.used = 0 }

// copyOf returns a copy of src the caller may fold into.
func (o *ownedSets) copyOf(src synopsis.Set) synopsis.Set {
	if o.used == len(o.sets) {
		o.sets = append(o.sets, nil)
	}
	c := src.CloneInto(o.sets[o.used])
	o.sets[o.used] = c
	o.used++
	return c
}

// grown returns s resliced to length n, its contents zeroed, growing
// its backing array only when n exceeds its capacity.
func grown[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cleared returns m emptied, or a new map when m is nil.
func cleared[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	clear(m)
	return m
}
