package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"iqn/internal/ir"
)

// bruteTopK is the reference the coordinator must match exactly: merge
// every list completely (per-document max score), sort by descending
// score with ascending doc breaking ties, truncate to k.
func bruteTopK(lists map[string][]ir.Result, k int) []ir.Result {
	best := map[uint64]float64{}
	for _, l := range lists {
		for _, e := range l {
			if s, ok := best[e.DocID]; !ok || e.Score > s {
				best[e.DocID] = e.Score
			}
		}
	}
	out := make([]ir.Result, 0, len(best))
	for d, s := range best {
		out = append(out, ir.Result{DocID: d, Score: s})
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

// randomSortedLists builds per-source descending score lists with
// duplicate documents across sources, duplicate scores within and
// across sources (quantized draws), and uneven lengths.
func randomSortedLists(rng *rand.Rand, sources, universe, maxLen int) map[string][]ir.Result {
	lists := map[string][]ir.Result{}
	for s := 0; s < sources; s++ {
		n := rng.Intn(maxLen + 1)
		if n > universe {
			n = universe
		}
		l := make([]ir.Result, 0, n)
		seen := map[uint64]bool{}
		for len(l) < n {
			doc := uint64(rng.Intn(universe))
			if seen[doc] {
				continue
			}
			seen[doc] = true
			// Quantized scores force ties, the tie-break minefield.
			l = append(l, ir.Result{DocID: doc, Score: float64(rng.Intn(20)) / 4})
		}
		sort.Slice(l, func(i, j int) bool {
			if l[i].Score != l[j].Score {
				return l[i].Score > l[j].Score
			}
			return l[i].DocID < l[j].DocID
		})
		lists[fmt.Sprintf("s%d", s)] = l
	}
	return lists
}

// runPull drives the coordinator exactly like the streaming search
// loop: round-robin chunk pulls in source order, each at the offset the
// coordinator's Entries give, stop decisions after each full round. It
// returns the results plus how many entries were pulled in total (the
// quantity early termination minimizes).
func runPull(lists map[string][]ir.Result, k, chunk int, seed func(string) float64) ([]ir.Result, int) {
	c := NewCoordinator(k)
	ids := make([]string, 0, len(lists))
	for id := range lists {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c.AddSource(id, seed(id))
	}
	pulled := 0
	for {
		progress := false
		for _, id := range ids {
			if c.Stopped(id) {
				continue
			}
			l := lists[id]
			off := len(c.Entries(id))
			end := off + chunk
			if end > len(l) {
				end = len(l)
			}
			c.Offer(id, l[off:end], end == len(l))
			pulled += end - off
			progress = true
		}
		if !progress {
			break
		}
	}
	return c.Results(), pulled
}

// seedFromList computes the sound seeded bound a directory would
// publish: the maximum score of the list (Σ over one term here).
func seedBounds(lists map[string][]ir.Result) func(string) float64 {
	return func(id string) float64 {
		l := lists[id]
		if len(l) == 0 {
			return 0
		}
		return l[0].Score
	}
}

// TestThresholdExactness is the exactness property: across randomized
// sorted lists — duplicate docs, duplicate scores, k beyond the
// universe, and the unbounded depth k = 0 — the early-terminating
// coordinator returns exactly the brute-force top-k, scores and keys,
// for every chunk size and with both infinite and directory-seeded
// bounds.
func TestThresholdExactness(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sources := 1 + rng.Intn(6)
		universe := 1 + rng.Intn(60)
		lists := randomSortedLists(rng, sources, universe, 30)
		for _, k := range []int{0, 1, 3, 10, universe + 50} {
			want := bruteTopK(lists, k)
			for _, chunk := range []int{1, 4, 17} {
				for _, boundName := range []string{"inf", "seeded"} {
					bound := func(string) float64 { return math.Inf(1) }
					if boundName == "seeded" {
						bound = seedBounds(lists)
					}
					got, _ := runPull(lists, k, chunk, bound)
					if len(got) != len(want) {
						t.Fatalf("seed %d k=%d chunk=%d %s: %d results, want %d",
							seed, k, chunk, boundName, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d k=%d chunk=%d %s: result %d = %+v, want %+v",
								seed, k, chunk, boundName, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestThresholdSavesPulls pins that early termination actually saves
// wire entries on a shaped workload: one dominant source and many weak
// ones, small k — the weak sources must be cut off early.
func TestThresholdSavesPulls(t *testing.T) {
	lists := map[string][]ir.Result{}
	strong := make([]ir.Result, 40)
	for i := range strong {
		strong[i] = ir.Result{DocID: uint64(i), Score: 100 - float64(i)}
	}
	lists["strong"] = strong
	total := len(strong)
	for s := 0; s < 5; s++ {
		weak := make([]ir.Result, 40)
		for i := range weak {
			weak[i] = ir.Result{DocID: uint64(1000 + s*100 + i), Score: 10 - float64(i)*0.2}
		}
		lists[fmt.Sprintf("weak%d", s)] = weak
		total += len(weak)
	}
	got, pulled := runPull(lists, 10, 8, seedBounds(lists))
	want := bruteTopK(lists, 10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if pulled >= total/2 {
		t.Fatalf("pulled %d of %d entries; early termination saved too little", pulled, total)
	}
}

// TestThresholdSeededSkip pins the strongest saving: when the seeded
// bound of a source is already below θ established by other sources,
// not a single entry is pulled from it.
func TestThresholdSeededSkip(t *testing.T) {
	lists := map[string][]ir.Result{
		"a": {{DocID: 1, Score: 9}, {DocID: 2, Score: 8}},
		"b": {{DocID: 3, Score: 0.5}, {DocID: 4, Score: 0.4}},
	}
	c := NewCoordinator(2)
	c.AddSource("a", 9)
	c.AddSource("b", 0.5)
	c.Offer("a", lists["a"], true)
	if !c.Stopped("b") {
		t.Fatal("source b not stopped despite seed bound 0.5 < θ=8")
	}
	if !c.EarlyStopped("b") {
		t.Fatal("source b not counted as early-stopped")
	}
	if c.EarlyStopped("a") {
		t.Fatal("exhausted source a counted as early-stopped")
	}
	got := c.Results()
	want := bruteTopK(lists, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestThresholdEqualBoundKeepsStreaming pins the strictness of the stop
// rule: a source whose bound equals θ may still send an equal-scoring
// smaller-ID document that wins the tie-break, so it must not stop.
func TestThresholdEqualBoundKeepsStreaming(t *testing.T) {
	c := NewCoordinator(1)
	c.AddSource("a", 5)
	c.AddSource("b", 5)
	c.Offer("a", []ir.Result{{DocID: 10, Score: 5}}, true)
	if c.Stopped("b") {
		t.Fatal("source b stopped at bound == θ; an equal score with a smaller doc would be missed")
	}
	c.Offer("b", []ir.Result{{DocID: 3, Score: 5}}, true)
	got := c.Results()
	if len(got) != 1 || got[0].DocID != 3 {
		t.Fatalf("results = %+v, want doc 3 (tie-break by ascending doc)", got)
	}
}

// TestThresholdRemoveSourceReopens is the mid-stream death protocol: a
// removed source takes its contributions with it, θ drops, and sources
// stopped under the old threshold become pullable again so the final
// result is exact over the survivors.
func TestThresholdRemoveSourceReopens(t *testing.T) {
	lists := map[string][]ir.Result{
		"dying": {{DocID: 1, Score: 9}, {DocID: 2, Score: 8.5}, {DocID: 3, Score: 8}},
		"weak":  {{DocID: 10, Score: 2}, {DocID: 11, Score: 1.5}},
	}
	c := NewCoordinator(2)
	c.AddSource("dying", 9)
	c.AddSource("weak", 2)
	c.Offer("dying", lists["dying"], false)
	if !c.Stopped("weak") {
		t.Fatal("weak not stopped while dying dominates")
	}
	// The dominant source dies mid-stream: its entries are dropped and
	// the weak source must resume.
	c.RemoveSource("dying")
	if c.Entries("dying") != nil {
		t.Fatal("a removed source still has entries")
	}
	if c.Stopped("weak") {
		t.Fatal("weak still stopped after the dominating source died")
	}
	c.Offer("weak", lists["weak"], true)
	got := c.Results()
	want := bruteTopK(map[string][]ir.Result{"weak": lists["weak"]}, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestThresholdRandomDeaths extends the exactness property across
// randomized mid-stream removals: whatever sources die whenever, the
// final result equals the brute-force top-k over the survivors.
func TestThresholdRandomDeaths(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		lists := randomSortedLists(rng, 4+rng.Intn(3), 40, 25)
		k := 1 + rng.Intn(12)
		chunk := 1 + rng.Intn(6)
		ids := make([]string, 0, len(lists))
		for id := range lists {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		// Pick victims and the round each dies in.
		deaths := map[string]int{}
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				deaths[id] = rng.Intn(4)
			}
		}
		c := NewCoordinator(k)
		for _, id := range ids {
			c.AddSource(id, seedBounds(lists)(id))
		}
		offsets := map[string]int{}
		dead := map[string]bool{}
		for round := 0; ; round++ {
			for id, when := range deaths {
				if when == round && !dead[id] {
					dead[id] = true
					c.RemoveSource(id)
				}
			}
			progress := false
			for _, id := range ids {
				if dead[id] || c.Stopped(id) {
					continue
				}
				l := lists[id]
				off := offsets[id]
				end := off + chunk
				if end > len(l) {
					end = len(l)
				}
				c.Offer(id, l[off:end], end == len(l))
				offsets[id] = end
				progress = true
			}
			if !progress && round > 4 {
				break
			}
			if round > 1000 {
				t.Fatalf("seed %d: pull loop did not terminate", seed)
			}
		}
		survivors := map[string][]ir.Result{}
		for _, id := range ids {
			if !dead[id] {
				survivors[id] = lists[id]
			}
		}
		want := bruteTopK(survivors, k)
		got := c.Results()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: result %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestThresholdReusedCoordinatorMatchesMerge extends the exactness
// property to a reused coordinator: one coordinator runs a sequence of
// randomized merges, each after Reset, with mid-stream removals and a
// stream reset, and every merge's Results equals ir.Merge over the
// surviving complete lists — nothing carries over from an earlier
// merge's sources, table or θ heap.
func TestThresholdReusedCoordinatorMatchesMerge(t *testing.T) {
	c := NewCoordinator(0)
	rng := rand.New(rand.NewSource(77))
	for search := 0; search < 60; search++ {
		lists := randomSortedLists(rng, 1+rng.Intn(6), 1+rng.Intn(80), 40)
		k := rng.Intn(25) // 0 keeps everything
		chunk := 1 + rng.Intn(8)
		c.Reset(k)
		ids := make([]string, 0, len(lists))
		for id := range lists {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			c.AddSource(id, seedBounds(lists)(id))
		}
		victim, restart := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		dead := false
		for round := 0; ; round++ {
			if round == 2 && rng.Intn(2) == 0 {
				c.RemoveSource(victim)
				dead = true
			}
			if round == 1 && restart != victim {
				// A stale-cursor restart: the stream starts over.
				c.AddSource(restart, seedBounds(lists)(restart))
			}
			progress := false
			for _, id := range ids {
				if dead && id == victim || c.Stopped(id) {
					continue
				}
				l := lists[id]
				off := len(c.Entries(id))
				end := min(off+chunk, len(l))
				c.Offer(id, l[off:end], end == len(l))
				progress = true
			}
			if !progress && round > 2 {
				break
			}
		}
		var survivors [][]ir.Result
		for _, id := range ids {
			if !(dead && id == victim) {
				survivors = append(survivors, lists[id])
			}
		}
		want := ir.Merge(survivors, k)
		got := c.Results()
		if len(got) != len(want) {
			t.Fatalf("search %d (k=%d): %d results, ir.Merge %d", search, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("search %d (k=%d): result %d = %+v, ir.Merge %+v", search, k, i, got[i], want[i])
			}
		}
	}
}

// coordinatorWorkload is the micro-benchmark's merge: `entries` entries
// over 5 sources, pulled round-robin in 16-entry chunks into a
// coordinator of depth 100 that is reset first.
func coordinatorWorkload(entries int) func(c *Coordinator) {
	rng := rand.New(rand.NewSource(int64(entries)))
	ids := []string{"s0", "s1", "s2", "s3", "s4"}
	lists := map[string][]ir.Result{}
	for _, id := range ids {
		l := make([]ir.Result, entries/len(ids))
		for i := range l {
			l[i] = ir.Result{DocID: uint64(rng.Intn(4 * entries)), Score: float64(rng.Intn(1000)) / 8}
		}
		sort.Slice(l, func(i, j int) bool { return l[i].Score > l[j].Score })
		lists[id] = l
	}
	return func(c *Coordinator) {
		c.Reset(100)
		for _, id := range ids {
			c.AddSource(id, math.Inf(1))
		}
		for progress := true; progress; {
			progress = false
			for _, id := range ids {
				l := lists[id]
				off := len(c.Entries(id))
				if off == len(l) {
					continue
				}
				end := min(off+16, len(l))
				c.Offer(id, l[off:end], end == len(l))
				progress = true
			}
		}
		if len(c.Results()) != 100 {
			panic("coordinator workload: fewer than 100 results")
		}
	}
}

// TestCoordinatorAllocationsConstant pins the reused coordinator's cost
// per merge: once its buffers have grown, a merge allocates only the
// Results slice it hands out, whatever the number of entries.
func TestCoordinatorAllocationsConstant(t *testing.T) {
	c := NewCoordinator(0)
	for _, entries := range []int{500, 5000} {
		run := coordinatorWorkload(entries)
		run(c)
		if allocs := testing.AllocsPerRun(20, func() { run(c) }); allocs > 1 {
			t.Fatalf("merging %d entries made %.0f allocations, want 1 (the results)", entries, allocs)
		}
	}
}

// BenchmarkCoordinator merges 500 entries from 5 sources in 16-entry
// chunks into a reused coordinator of depth 100.
func BenchmarkCoordinator(b *testing.B) {
	run := coordinatorWorkload(500)
	c := NewCoordinator(0)
	run(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(c)
	}
}
