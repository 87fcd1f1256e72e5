package ir

import (
	"container/heap"
	"sort"
)

// Result is one ranked query hit.
type Result struct {
	// DocID is the global document identifier.
	DocID uint64
	// Score is the aggregated query score (sum of per-term scores).
	Score float64
}

// Mode selects the query execution model of Section 6.1.
type Mode int

const (
	// Disjunctive matches documents containing any query term.
	Disjunctive Mode = iota
	// Conjunctive matches only documents containing all query terms.
	Conjunctive
)

// String names the mode.
func (m Mode) String() string {
	if m == Conjunctive {
		return "conjunctive"
	}
	return "disjunctive"
}

// resultHeap is a min-heap over scores, used to retain the top k results.
type resultHeap []Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].DocID > h[j].DocID
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search executes a multi-keyword query against the local index and
// returns the top k results by aggregated score, descending. k ≤ 0 means
// unlimited. Duplicate query terms are collapsed.
func (x *Index) Search(terms []string, k int, mode Mode) []Result {
	x.mustFinal()
	return searchPostings(func(t string) []Posting { return x.postings[t] }, terms, k, mode)
}

// searchPostings is the query execution core shared by the in-memory
// index and the on-disk reader: given a postings source, it accumulates
// per-document scores over the (de-duplicated) query terms and returns
// the top k. Both implementations hand postings lists in identical
// order, so accumulation — and therefore every returned score bit — is
// identical between them.
func searchPostings(postings func(term string) []Posting, terms []string, k int, mode Mode) []Result {
	uniq := make([]string, 0, len(terms))
	seen := make(map[string]struct{}, len(terms))
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		uniq = append(uniq, t)
	}
	// Accumulate per-document scores and term hit counts.
	scores := make(map[uint64]float64)
	hits := make(map[uint64]int)
	for _, t := range uniq {
		for _, p := range postings(t) {
			scores[p.DocID] += p.Score
			hits[p.DocID]++
		}
	}
	h := make(resultHeap, 0, k+1)
	heap.Init(&h)
	push := func(r Result) {
		if k <= 0 {
			h = append(h, r)
			return
		}
		heap.Push(&h, r)
		if len(h) > k {
			heap.Pop(&h)
		}
	}
	for d, s := range scores {
		if mode == Conjunctive && hits[d] != len(uniq) {
			continue
		}
		push(Result{DocID: d, Score: s})
	}
	out := []Result(h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	return out
}
