package ir

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

// resultHeap is a min-heap over (score, then reverse doc ID) — the root
// is the weakest retained result — used to keep the top k. It is
// typed, so no result is boxed on its way in or out.
type resultHeap []Result

// weaker reports whether a ranks below b: lower score, or equal score
// and higher doc ID.
func weaker(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DocID > b.DocID
}

// up restores the heap order from leaf i towards the root.
func (h resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !weaker(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap order from i towards the leaves of h[:n].
func (h resultHeap) down(i, n int) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && weaker(h[r], h[child]) {
			child = r
		}
		if !weaker(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Search executes a multi-keyword query against the local index and
// returns the top k results by aggregated score, descending. k ≤ 0 means
// unlimited. Duplicate query terms are collapsed.
func (x *Index) Search(terms []string, k int, mode Mode) []Result {
	x.mustFinal()
	return searchPostings(func(t string) []Posting { return x.postings[t] }, terms, k, mode)
}

// accum is one document's running score and the number of query terms
// it matched; hits == 0 marks a free slot of an accumTable.
type accum struct {
	doc   uint64
	score float64
	hits  int
}

// accumTable is an open-addressing (linear probing) map from doc ID to
// accum in one flat allocation, sized up front from the total postings
// length, which bounds the distinct documents: it never grows, so a
// query's accumulator costs one allocation however many documents it
// scores.
type accumTable struct {
	slots []accum
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
}

func newAccumTable(total int) accumTable {
	bits := uint(3)
	for 1<<bits < total+total/4 {
		bits++
	}
	return accumTable{slots: make([]accum, 1<<bits), shift: 64 - bits}
}

// add accumulates one posting.
func (t *accumTable) add(doc uint64, score float64) {
	mask := len(t.slots) - 1
	// Fibonacci hashing spreads dense doc ID ranges over the table.
	for i := int((doc * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		a := &t.slots[i]
		if a.hits == 0 {
			*a = accum{doc: doc, score: score, hits: 1}
			t.n++
			return
		}
		if a.doc == doc {
			a.score += score
			a.hits++
			return
		}
	}
}

// searchPostings is the query execution core shared by the in-memory
// index and the on-disk reader: given a postings source, it accumulates
// per-document scores over the (de-duplicated) query terms and returns
// the top k. Both implementations hand postings lists in identical
// order, so accumulation — and therefore every returned score bit — is
// identical between them.
//
// What it allocates is per query, not per document: the accumulator is
// one table sized from the list lengths, and the top-k heap holds at
// most min(k, scored documents) results and becomes the output in
// place — so a k far beyond the index (a remote caller's untrusted
// depth) costs nothing extra.
func searchPostings(postings func(term string) []Posting, terms []string, k int, mode Mode) []Result {
	uniq := make([]string, 0, len(terms))
	seen := make(map[string]struct{}, len(terms))
	lists := make([][]Posting, 0, len(terms))
	total := 0
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		uniq = append(uniq, t)
		list := postings(t)
		lists = append(lists, list)
		total += len(list)
	}
	acc := newAccumTable(total)
	for _, list := range lists {
		for _, p := range list {
			acc.add(p.DocID, p.Score)
		}
	}
	limit := acc.n
	if k > 0 && k < limit {
		limit = k
	}
	h := make(resultHeap, 0, limit)
	for _, a := range acc.slots {
		if a.hits == 0 || mode == Conjunctive && a.hits != len(uniq) {
			continue
		}
		r := Result{DocID: a.doc, Score: a.score}
		switch {
		case len(h) < limit:
			h = append(h, r)
			h.up(len(h) - 1)
		case weaker(h[0], r):
			h[0] = r
			h.down(0, len(h))
		}
	}
	// Heap-sort in place: each pass moves the weakest remaining result
	// to the back, leaving the slice strongest-first.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h.down(0, n)
	}
	return h
}
