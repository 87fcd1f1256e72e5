package core

import (
	"errors"

	"iqn/internal/synopsis"
)

// This file implements the per-peer synopsis aggregation of Section 6.2:
// combining a peer's term-specific synopses into one query-specific
// synopsis, by union for disjunctive queries and by intersection for
// conjunctive queries.

// combinePerPeer folds a candidate's per-term synopses into one synopsis
// plus a cardinality estimate for the combined set. Missing terms count
// as empty sets: for a disjunctive query they contribute nothing; for a
// conjunctive query they empty the whole combination (a peer lacking a
// term cannot hold conjunctive matches).
//
// The returned cardinality is an estimate: for disjunctive queries the
// sum of published list lengths is an upper bound that double-counts
// documents matching several terms, so the synopsis's own estimate is
// used when it is defined (unknown exact count), clamped by the upper
// bound. For conjunctive queries the combination synopsis has no sound
// cardinality, so the synopsis estimate is used directly.
//
// Hash sketches have no intersection; per the paper's Section 6.1 the
// crude-but-valid fallback is to use the union (a superset of the
// intersection), degrading accuracy but never correctness.
//
// The returned synopsis is read-only: for a candidate with one synopsis
// among the query terms it is that term's shared synopsis itself, and
// only a fold of two or more works on a copy, taken from owned.
func combinePerPeer(c *Candidate, q Query, owned *ownedSets) (synopsis.Set, float64, error) {
	var acc synopsis.Set
	folded := false
	var cardUpper float64
	for _, t := range q.Terms {
		s := c.TermSynopses[t]
		if s == nil {
			if q.Type == Conjunctive {
				return nil, 0, nil // no conjunctive matches possible
			}
			continue
		}
		if card, ok := c.TermCardinalities[t]; ok {
			cardUpper += card
		} else {
			cardUpper += s.Cardinality()
		}
		if acc == nil {
			acc = s // shared read-only until a second synopsis folds in
			continue
		}
		if !folded {
			acc, folded = owned.copyOf(acc), true // fold into a copy, never a shared set
		}
		var err error
		if q.Type == Conjunctive {
			err = intersectWithFallback(acc, s)
		} else {
			err = acc.UnionInPlace(s)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if acc == nil {
		return nil, 0, nil
	}
	card := acc.Cardinality()
	if q.Type == Disjunctive && card > cardUpper {
		card = cardUpper
	}
	if len(q.Terms) == 1 {
		// Single-term queries keep the exact published length.
		if c, ok := c.TermCardinalities[q.Terms[0]]; ok {
			card = c
		}
	}
	return acc, card, nil
}

// intersectWithFallback folds b into acc by intersection, falling back
// to union for families without one (hash sketches): the union is a
// superset of the intersection, so the result is a valid — if very
// conservative — synopsis (Section 6.1).
func intersectWithFallback(acc, b synopsis.Set) error {
	err := acc.IntersectInPlace(b)
	if errors.Is(err, synopsis.ErrUnsupported) {
		return acc.UnionInPlace(b)
	}
	return err
}
