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
	"cmp"
	"math"
	"slices"

	"iqn/internal/ir"
)

// source is one peer's stream state inside the coordinator.
type source struct {
	id      string
	entries []ir.Result
	// bound is a ceiling on every score the source may still send:
	// the seeded bound before the first chunk, then the last received
	// score (the stream is descending).
	bound float64
	done  bool
}

// mergedDoc is one distinct document of the merge: its maximum score
// across sources (ir.Merge's collapse rule) and its position in the θ
// heap, -1 when it is not among the k best.
type mergedDoc struct {
	doc   uint64
	score float64
	heap  int32
}

// Coordinator merges incrementally streamed, score-descending result
// lists into an exact top-k with threshold-based early termination.
// It is not safe for concurrent use; callers serialize access.
//
// A Coordinator is reusable: Reset starts a new merge and keeps every
// buffer — source entries, the merge table and the θ heap — so a
// caller that keeps one per search pays for its memory once.
type Coordinator struct {
	k int
	// sources[:n] are the registered streams (a removal moves the last
	// one into the freed slot); the slots past n keep the entry buffers
	// of removed sources and of earlier merges for reuse.
	sources []source
	n       int
	// docs holds the merged documents; slots is an open-addressing
	// (linear probing) index over it, 0 marking a free slot and i+1
	// pointing at docs[i]. shift is 64 − log2(len(slots)).
	docs  []mergedDoc
	slots []int32
	shift uint
	// heap is a min-heap by score of indexes into docs, holding the
	// min(k, len(docs)) best merged scores: θ is its root's score, read
	// in O(1) after every Offer.
	heap []int32
}

// NewCoordinator returns a coordinator for a merged top-k of depth k.
// k ≤ 0 keeps every merged document: θ is then never defined, so no
// source is ever stopped by the threshold and every stream runs to
// completion.
func NewCoordinator(k int) *Coordinator {
	return &Coordinator{k: k}
}

// Reset empties the coordinator for a new merge of depth k, keeping its
// buffers. Slices Entries returned before the reset are overwritten by
// the next merge.
func (c *Coordinator) Reset(k int) {
	c.k = k
	c.n = 0
	c.clearMerge()
}

// clearMerge empties the merge table and the θ heap.
func (c *Coordinator) clearMerge() {
	c.docs = c.docs[:0]
	clear(c.slots)
	c.heap = c.heap[:0]
}

// source returns the registered source id, or nil.
func (c *Coordinator) source(id string) *source {
	for i := range c.sources[:c.n] {
		if c.sources[i].id == id {
			return &c.sources[i]
		}
	}
	return nil
}

// addSource registers a new source, reusing a spare slot's buffer.
func (c *Coordinator) addSource(id string, bound float64) *source {
	if c.n == len(c.sources) {
		c.sources = append(c.sources, source{})
	}
	s := &c.sources[c.n]
	c.n++
	*s = source{id: id, entries: s.entries[:0], bound: bound}
	return s
}

// AddSource registers a stream with a seeded score upper bound — the
// sum of the per-term maximum scores the directory publishes for the
// peer, or +Inf when no statistics are available. Adding an existing
// id resets its stream.
func (c *Coordinator) AddSource(id string, bound float64) {
	s := c.source(id)
	if s == nil {
		c.addSource(id, bound)
		return
	}
	had := len(s.entries) > 0
	*s = source{id: id, entries: s.entries[:0], bound: bound}
	if had {
		c.rebuild()
	}
}

// Offer ingests one chunk from a source: entries must continue the
// stream in descending score order. done marks the stream exhausted.
// Unknown ids are registered implicitly with an infinite seed bound.
func (c *Coordinator) Offer(id string, entries []ir.Result, done bool) {
	s := c.source(id)
	if s == nil {
		s = c.addSource(id, math.Inf(1))
	}
	s.entries = append(s.entries, entries...)
	for _, e := range entries {
		c.merge(e.DocID, e.Score)
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
// offset. Callers must not modify the slice; it is valid until the
// source is reset or removed, or the coordinator is Reset.
func (c *Coordinator) Entries(id string) []ir.Result {
	if s := c.source(id); s != nil {
		return s.entries
	}
	return nil
}

// RemoveSource drops a stream and everything it contributed — the
// mid-stream peer-death path. The merged state is rebuilt from the
// surviving sources, so θ can drop and previously stopped sources can
// become pullable again; callers re-check Stopped after a removal.
func (c *Coordinator) RemoveSource(id string) {
	s := c.source(id)
	if s == nil {
		return
	}
	had := len(s.entries) > 0
	// Swap the removed source past n: its buffer stays for reuse.
	c.n--
	*s, c.sources[c.n] = c.sources[c.n], *s
	if had {
		c.rebuild()
	}
}

// rebuild recomputes the merge from the surviving sources after a drop
// may have removed a per-document maximum.
func (c *Coordinator) rebuild() {
	c.clearMerge()
	for _, s := range c.sources[:c.n] {
		for _, e := range s.entries {
			c.merge(e.DocID, e.Score)
		}
	}
}

// merge folds one entry into the table: a new document joins, a seen
// one keeps the maximum of its scores.
func (c *Coordinator) merge(doc uint64, score float64) {
	if 4*(len(c.docs)+1) > 3*len(c.slots) {
		c.grow()
	}
	mask := len(c.slots) - 1
	// Fibonacci hashing spreads dense doc ID ranges over the table.
	for i := int((doc * 0x9E3779B97F4A7C15) >> c.shift); ; i = (i + 1) & mask {
		j := c.slots[i]
		if j == 0 {
			c.docs = append(c.docs, mergedDoc{doc: doc, score: score, heap: -1})
			c.slots[i] = int32(len(c.docs))
			c.admit(int32(len(c.docs) - 1))
			return
		}
		if d := &c.docs[j-1]; d.doc == doc {
			if score > d.score {
				d.score = score
				if d.heap >= 0 {
					c.down(int(d.heap)) // a raised key sinks in a min-heap
				} else {
					c.admit(j - 1)
				}
			}
			return
		}
	}
}

// grow doubles the table index (16 slots at first) and re-files every
// merged document.
func (c *Coordinator) grow() {
	bits := uint(4)
	for 1<<bits < 2*len(c.slots) {
		bits++
	}
	c.slots = make([]int32, 1<<bits)
	c.shift = 64 - bits
	mask := len(c.slots) - 1
	for j, d := range c.docs {
		i := int((d.doc * 0x9E3779B97F4A7C15) >> c.shift)
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(j + 1)
	}
}

// admit offers docs[j], which is outside the heap, to the k best: it
// joins while fewer than k are held, or replaces the root when it
// scores strictly higher.
func (c *Coordinator) admit(j int32) {
	if c.k <= 0 {
		return
	}
	if len(c.heap) < c.k {
		c.heap = append(c.heap, j)
		c.docs[j].heap = int32(len(c.heap) - 1)
		c.up(len(c.heap) - 1)
		return
	}
	root := c.heap[0]
	if c.docs[j].score <= c.docs[root].score {
		return
	}
	c.docs[root].heap = -1
	c.heap[0] = j
	c.docs[j].heap = 0
	c.down(0)
}

func (c *Coordinator) less(a, b int) bool {
	return c.docs[c.heap[a]].score < c.docs[c.heap[b]].score
}

func (c *Coordinator) swap(a, b int) {
	c.heap[a], c.heap[b] = c.heap[b], c.heap[a]
	c.docs[c.heap[a]].heap = int32(a)
	c.docs[c.heap[b]].heap = int32(b)
}

func (c *Coordinator) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *Coordinator) down(i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(c.heap) && c.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < len(c.heap) && c.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		c.swap(i, min)
		i = min
	}
}

// Threshold returns θ — the k-th best merged score — and whether at
// least k distinct documents have been merged (θ is undefined before
// that and at unbounded depth, and no source may be stopped).
func (c *Coordinator) Threshold() (float64, bool) {
	if c.k <= 0 || len(c.heap) < c.k {
		return 0, false
	}
	return c.docs[c.heap[0]].score, true
}

// Stopped reports whether the source provably cannot contribute to the
// merged top-k anymore: its stream is exhausted, or its upper bound is
// strictly below θ. Equal bounds keep streaming — an equal-scoring
// document with a smaller ID would still win the deterministic
// tie-break into the top-k.
func (c *Coordinator) Stopped(id string) bool {
	s := c.source(id)
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
	s := c.source(id)
	return s != nil && !s.done && c.Stopped(id)
}

// Results returns the merged top-k, descending by score with ascending
// document ID breaking ties — exactly ir.Merge's order — truncated
// to k (everything at unbounded depth). Only documents scoring at least
// θ can make the cut, so only those are sorted. The slice is the
// caller's: it shares no memory with the coordinator.
func (c *Coordinator) Results() []ir.Result {
	theta, ok := c.Threshold()
	n := len(c.docs)
	if ok {
		n = 0
		for _, d := range c.docs {
			if d.score >= theta {
				n++
			}
		}
	}
	out := make([]ir.Result, 0, n)
	for _, d := range c.docs {
		if !ok || d.score >= theta {
			out = append(out, ir.Result{DocID: d.doc, Score: d.score})
		}
	}
	slices.SortFunc(out, func(a, b ir.Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.DocID, b.DocID)
	})
	if c.k > 0 && len(out) > c.k {
		out = out[:c.k]
	}
	return out
}

// Merged returns how many distinct documents the coordinator has seen.
func (c *Coordinator) Merged() int { return len(c.docs) }
