// Package topk is the initiator-side coordinator of the bandwidth-frugal
// top-k protocol (the traffic-reduction direction of Akbarinia et al.,
// "Reducing Network Traffic in Unstructured P2P Systems Using Top-k
// Queries" — see PAPERS.md): each queried peer streams its local result
// list in descending-score chunks, and the coordinator maintains the
// k-th best merged score θ against a per-source score upper bound. The
// moment a source's bound drops strictly below θ, no entry it could
// still send can crack the merged top-k — not as a new document (its
// score would be < θ) and not by raising an already-seen document
// (merged scores take the per-document max, and max(old, new < θ) only
// changes a document already below θ) — so the coordinator tells the
// puller to stop, and the remaining entries never cross the wire.
//
// Bounds start from the sum of the per-term maximum scores the
// directory already publishes (a sound ceiling on any aggregated
// document score at that peer) and are refined to the last score of
// each received chunk (the stream is sorted, so everything still unsent
// scores no higher). The stop test uses strict inequality: a source
// whose bound equals θ may still send an equal-scoring document whose
// smaller ID wins the deterministic tie-break, so it keeps streaming.
//
// The coordinator is exact, not approximate: Results() equals the
// brute-force merge of the complete lists truncated to k, scores and
// keys, whenever every source ran to completion or was stopped by the
// threshold (the property test asserts this across randomized lists).
// Sources lost mid-stream (peer death) are removed wholesale —
// RemoveSource drops their entries and recomputes θ, which can lower it
// and legitimately re-open sources that were stopped under the old
// threshold; Stopped answers against the current state, so pullers that
// re-check after a removal resume exactly where soundness requires.
package topk

import (
	"math"
	"sort"

	"iqn/internal/ir"
)

// source is one peer's stream state inside the coordinator.
type source struct {
	entries []ir.Result
	// bound is a ceiling on every score the source may still send:
	// the seeded bound before the first chunk, then the last received
	// score (the stream is descending).
	bound float64
	done  bool
}

// Coordinator merges incrementally streamed, score-descending result
// lists into an exact top-k with threshold-based early termination.
// It is not safe for concurrent use; callers serialize access.
type Coordinator struct {
	k       int
	sources map[string]*source
	// merged is the per-document maximum score across sources, the
	// same collapse rule as ir.Merge.
	merged map[uint64]float64
	// kth caches the current θ; NaN marks it dirty.
	kth float64
}

// NewCoordinator returns a coordinator for a merged top-k of depth k.
// k ≤ 0 keeps every merged document: θ is then never defined, so no
// source is ever stopped by the threshold and every stream runs to
// completion.
func NewCoordinator(k int) *Coordinator {
	return &Coordinator{
		k:       k,
		sources: map[string]*source{},
		merged:  map[uint64]float64{},
		kth:     math.NaN(),
	}
}

// AddSource registers a stream with a seeded score upper bound — the
// sum of the per-term maximum scores the directory publishes for the
// peer, or +Inf when no statistics are available. Adding an existing
// id resets its stream.
func (c *Coordinator) AddSource(id string, bound float64) {
	old := c.sources[id]
	c.sources[id] = &source{bound: bound}
	if old != nil && len(old.entries) > 0 {
		c.rebuild()
	}
}

// Offer ingests one chunk from a source: entries must continue the
// stream in descending score order. done marks the stream exhausted.
// Unknown ids are registered implicitly with an infinite seed bound.
func (c *Coordinator) Offer(id string, entries []ir.Result, done bool) {
	s := c.sources[id]
	if s == nil {
		s = &source{bound: math.Inf(1)}
		c.sources[id] = s
	}
	s.entries = append(s.entries, entries...)
	for _, e := range entries {
		if best, ok := c.merged[e.DocID]; !ok || e.Score > best {
			c.merged[e.DocID] = e.Score
			c.kth = math.NaN()
		}
	}
	if n := len(entries); n > 0 {
		s.bound = entries[n-1].Score
	}
	if done {
		s.done = true
	}
}

// Entries returns the entries a source offered since AddSource last
// (re)set it, in stream order, so their count is the stream's next
// offset. Callers must not modify the slice.
func (c *Coordinator) Entries(id string) []ir.Result {
	if s := c.sources[id]; s != nil {
		return s.entries
	}
	return nil
}

// RemoveSource drops a stream and everything it contributed — the
// mid-stream peer-death path. The merged state is rebuilt from the
// surviving sources, so θ can drop and previously stopped sources can
// become pullable again; callers re-check Stopped after a removal.
func (c *Coordinator) RemoveSource(id string) {
	s := c.sources[id]
	if s == nil {
		return
	}
	delete(c.sources, id)
	if len(s.entries) > 0 {
		c.rebuild()
	}
}

// rebuild recomputes the merged map from the surviving sources after a
// drop may have removed a per-document maximum.
func (c *Coordinator) rebuild() {
	for d := range c.merged {
		delete(c.merged, d)
	}
	for _, s := range c.sources {
		for _, e := range s.entries {
			if best, ok := c.merged[e.DocID]; !ok || e.Score > best {
				c.merged[e.DocID] = e.Score
			}
		}
	}
	c.kth = math.NaN()
}

// Threshold returns θ — the k-th best merged score — and whether at
// least k distinct documents have been merged (θ is undefined before
// that and at unbounded depth, and no source may be stopped).
func (c *Coordinator) Threshold() (float64, bool) {
	if c.k <= 0 || len(c.merged) < c.k {
		return 0, false
	}
	if !math.IsNaN(c.kth) {
		return c.kth, true
	}
	scores := make([]float64, 0, len(c.merged))
	for _, s := range c.merged {
		scores = append(scores, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	c.kth = scores[c.k-1]
	return c.kth, true
}

// Stopped reports whether the source provably cannot contribute to the
// merged top-k anymore: its stream is exhausted, or its upper bound is
// strictly below θ. Equal bounds keep streaming — an equal-scoring
// document with a smaller ID would still win the deterministic
// tie-break into the top-k.
func (c *Coordinator) Stopped(id string) bool {
	s := c.sources[id]
	if s == nil {
		return true
	}
	if s.done {
		return true
	}
	theta, ok := c.Threshold()
	return ok && s.bound < theta
}

// EarlyStopped reports whether the source was cut off by the threshold
// rather than running to completion — the protocol's success counter.
func (c *Coordinator) EarlyStopped(id string) bool {
	s := c.sources[id]
	return s != nil && !s.done && c.Stopped(id)
}

// Results returns the merged top-k, descending by score with ascending
// document ID breaking ties — exactly ir.Merge's order — truncated
// to k (everything at unbounded depth).
func (c *Coordinator) Results() []ir.Result {
	out := make([]ir.Result, 0, len(c.merged))
	for d, s := range c.merged {
		out = append(out, ir.Result{DocID: d, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if c.k > 0 && len(out) > c.k {
		out = out[:c.k]
	}
	return out
}

// Merged returns how many distinct documents the coordinator has seen.
func (c *Coordinator) Merged() int { return len(c.merged) }
