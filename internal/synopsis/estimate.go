package synopsis

// This file implements the correlation measures of Section 3.1 and the
// derivation of the paper's novelty measure from pair-wise resemblance
// estimates (Section 5.2).

// OverlapFromResemblance derives the intersection cardinality |A∩B| from
// a resemblance estimate R = |A∩B|/|A∪B| and the two set cardinalities:
//
//	|A∩B| = R·(|A|+|B|) / (R+1)
//
// (Section 5.2, "Exploiting MIPs"). Inputs outside the feasible range are
// clamped so the result is within [0, min(|A|,|B|)].
func OverlapFromResemblance(r, cardA, cardB float64) float64 {
	if r <= 0 {
		return 0
	}
	if r > 1 {
		r = 1
	}
	ov := r * (cardA + cardB) / (r + 1)
	if m := min(cardA, cardB); ov > m {
		ov = m
	}
	if ov < 0 {
		ov = 0
	}
	return ov
}

// NoveltyFromResemblance derives the paper's novelty measure
//
//	Novelty(B|A) = |B − (A∩B)| = |B| − |A∩B|
//
// from a resemblance estimate and the two cardinalities (Section 3.1,
// 5.2). Unlike containment and resemblance, novelty does not undervalue
// small collections: a tiny collection fully contained in the reference
// has novelty 0 even though its resemblance to the reference is also low.
func NoveltyFromResemblance(r, cardRef, cardB float64) float64 {
	n := cardB - OverlapFromResemblance(r, cardRef, cardB)
	if n < 0 {
		return 0
	}
	return n
}

// EstimateNovelty estimates Novelty(B|ref) from two synopses, using the
// family-specific derivation of Section 5.2:
//
//   - MIPs: resemblance from matching minima, then the overlap formula.
//     The reference cardinality must be supplied by the caller (IQN seeds
//     it from the initiator's local result, whose size is known) or is
//     taken from the synopsis estimate when refCard < 0.
//   - Hash sketches: |A∩B| = |A| + |B| − |A∪B| via the union sketch.
//   - Bloom filters: cardinality of the bit-wise difference filter
//     B ∧ ¬ref.
//
// cardB is the candidate collection size as published in its directory
// Post; when negative, the synopsis estimate is used.
func EstimateNovelty(ref, b Set, refCard, cardB float64) (float64, error) {
	if cardB < 0 {
		cardB = b.Cardinality()
	}
	if refCard < 0 {
		refCard = ref.Cardinality()
	}
	switch rb := b.(type) {
	case *Bloom:
		n, err := rb.DifferenceCardinality(ref)
		if err != nil {
			return 0, err
		}
		if n > cardB {
			n = cardB
		}
		return n, nil
	default:
		r, err := ref.Resemblance(b)
		if err != nil {
			return 0, err
		}
		return NoveltyFromResemblance(r, refCard, cardB), nil
	}
}
