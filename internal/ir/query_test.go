package ir

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"iqn/internal/dataset"
)

// bruteForceSearch ranks every matching document by a full sort — the
// reference the heap-based top-k is held to.
func bruteForceSearch(x *Index, terms []string, k int, mode Mode) []Result {
	seen := map[string]bool{}
	scores := map[uint64]float64{}
	hits := map[uint64]int{}
	uniq := 0
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		uniq++
		for _, p := range x.Postings(t) {
			scores[p.DocID] += p.Score
			hits[p.DocID]++
		}
	}
	var out []Result
	for d, s := range scores {
		if mode == Conjunctive && hits[d] != uniq {
			continue
		}
		out = append(out, Result{DocID: d, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestSearchMatchesBruteForce compares the top-k heap with a full sort
// over seeded corpora, for both query models and depths from 1 to
// beyond the number of matches: same documents, same order, same score
// bits.
func TestSearchMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 300, VocabSize: 60, MinDocLen: 5, MaxDocLen: 20, Seed: seed})
		x := NewIndex()
		for _, d := range corpus.Docs {
			x.AddDocument(d.ID, d.Terms)
		}
		x.Finalize()
		queries := [][]string{
			{corpus.Vocab[0]},
			{corpus.Vocab[1], corpus.Vocab[2]},
			{corpus.Vocab[3], corpus.Vocab[4], corpus.Vocab[3]},
			{corpus.Vocab[5], "not-a-term"},
		}
		for _, q := range queries {
			for _, mode := range []Mode{Disjunctive, Conjunctive} {
				for _, k := range []int{0, 1, 2, 7, 50, 1000} {
					got := x.Search(q, k, mode)
					want := bruteForceSearch(x, q, k, mode)
					if len(got) != len(want) {
						t.Fatalf("seed %d %v %v k=%d: %d results, want %d", seed, q, mode, k, len(got), len(want))
					}
					for i := range want {
						if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("seed %d %v %v k=%d: result %d = %+v, want %+v", seed, q, mode, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSearchOutOfRangeK: every k ≤ 0 means unlimited, and a k far beyond
// the index — a remote caller's untrusted depth — is served like
// unlimited instead of sizing anything by k.
func TestSearchOutOfRangeK(t *testing.T) {
	x := buildSmall(t)
	terms := []string{"forest", "fire", "control", "safety"}
	all := x.Search(terms, 0, Disjunctive)
	for _, k := range []int{-2, math.MinInt, 1 << 40, math.MaxInt} {
		if got := x.Search(terms, k, Disjunctive); !reflect.DeepEqual(got, all) {
			t.Fatalf("Search(k=%d) = %v, want %v", k, got, all)
		}
	}
}

// searchFixture indexes docs documents that all contain "alpha", every
// other one also "beta", so the query {alpha, beta} scores every
// document.
func searchFixture(docs int) *Index {
	x := NewIndex()
	for d := 0; d < docs; d++ {
		terms := []string{"alpha", fmt.Sprintf("w%d", d%37)}
		for r := 0; r < d%5; r++ {
			terms = append(terms, "alpha")
		}
		if d%2 == 0 {
			terms = append(terms, "beta")
		}
		x.AddDocument(uint64(d), terms)
	}
	x.Finalize()
	return x
}

// TestSearchAllocsConstant guards the peer-local top-k: at k = 10 a
// query allocates a constant amount whether it scores 1,000 documents or
// 4,000 — no allocation per scored document.
func TestSearchAllocsConstant(t *testing.T) {
	const limit = 8
	terms := []string{"alpha", "beta"}
	for _, docs := range []int{1000, 4000} {
		x := searchFixture(docs)
		for _, mode := range []Mode{Disjunctive, Conjunctive} {
			allocs := testing.AllocsPerRun(20, func() { x.Search(terms, 10, mode) })
			t.Logf("%d docs, %v: %.0f allocations", docs, mode, allocs)
			if allocs > limit {
				t.Fatalf("%d docs, %v: %.0f allocations per search, limit %d", docs, mode, allocs, limit)
			}
		}
	}
}

// BenchmarkSearchPostings times the shared query core at k = 10 over
// 1,000 scored documents.
func BenchmarkSearchPostings(b *testing.B) {
	x := searchFixture(1000)
	terms := []string{"alpha", "beta"}
	for _, mode := range []Mode{Disjunctive, Conjunctive} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.Search(terms, 10, mode)
			}
		})
	}
}
