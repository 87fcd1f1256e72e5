package histogram

import (
	"math"
	"reflect"
	"testing"

	"iqn/internal/ir"
	"iqn/internal/synopsis"
)

var cfg = synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 77}

func ascendingPostings(lo uint64, n int) []ir.Posting {
	ps := make([]ir.Posting, n)
	for i := range ps {
		ps[i] = ir.Posting{DocID: lo + uint64(i), Score: float64(i + 1)}
	}
	return ps
}

func TestBuildPartitionsByScore(t *testing.T) {
	h := Build(ascendingPostings(0, 100), 4, cfg)
	if len(h.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(h.Cells))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	for i, c := range h.Cells {
		if c.Count != 25 {
			t.Fatalf("cell %d count = %d, want 25 (equi-width over uniform scores)", i, c.Count)
		}
		if i > 0 && c.Lo < h.Cells[i-1].Hi-1e-9 {
			t.Fatalf("cells overlap: cell %d starts at %v before %v", i, c.Lo, h.Cells[i-1].Hi)
		}
		if got := c.Synopsis.Cardinality(); got != 25 {
			t.Fatalf("cell %d synopsis cardinality = %v", i, got)
		}
	}
	// The maximum score must land in the top cell, not overflow.
	top := h.Cells[3]
	if top.Count == 0 {
		t.Fatal("top cell empty")
	}
}

func TestBuildDegenerate(t *testing.T) {
	// Empty postings yield empty cells.
	h := Build(nil, 3, cfg)
	if len(h.Cells) != 3 || h.Count() != 0 {
		t.Fatalf("empty build: %d cells, count %d", len(h.Cells), h.Count())
	}
	// All-equal scores collapse into the top cell (width 0).
	eq := []ir.Posting{{DocID: 1, Score: 2}, {DocID: 2, Score: 2}}
	h = Build(eq, 4, cfg)
	if h.Count() != 2 {
		t.Fatalf("equal-score count = %d", h.Count())
	}
	if h.Cells[3].Count != 2 {
		t.Fatalf("equal scores not in top cell: %+v", h.Cells)
	}
	// numCells < 1 clamps.
	h = Build(eq, 0, cfg)
	if len(h.Cells) != 1 {
		t.Fatalf("clamped cells = %d", len(h.Cells))
	}
}

func TestSizeBits(t *testing.T) {
	h := Build(ascendingPostings(0, 10), 4, cfg)
	if got := h.SizeBits(); got != 4*2048 {
		t.Fatalf("SizeBits = %d, want %d", got, 4*2048)
	}
}

func TestFlatten(t *testing.T) {
	h := Build(ascendingPostings(0, 200), 4, cfg)
	before := Build(ascendingPostings(0, 200), 4, cfg)
	flat, err := h.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// Flatten folds into a copy: the cells' synopses stay as built.
	if !reflect.DeepEqual(h, before) {
		t.Fatal("Flatten modified the histogram's cells")
	}
	if est := flat.Cardinality(); math.Abs(est-200)/200 > 0.4 {
		t.Fatalf("flattened cardinality = %v, want ≈200", est)
	}
	// Flat synopsis must fully overlap a directly-built one.
	direct := cfg.FromIDs(func() []uint64 {
		ids := make([]uint64, 200)
		for i := range ids {
			ids[i] = uint64(i)
		}
		return ids
	}())
	r, err := flat.Resemblance(direct)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("flattened resemblance to direct = %v, want 1", r)
	}
}

func TestCellWeight(t *testing.T) {
	if w := CellWeight(3, 4); w != 1 {
		t.Fatalf("top cell weight = %v, want 1", w)
	}
	if w := CellWeight(0, 4); w != 0.25 {
		t.Fatalf("bottom cell weight = %v, want 0.25", w)
	}
	if w := CellWeight(0, 0); w != 0 {
		t.Fatalf("degenerate weight = %v", w)
	}
	prev := 0.0
	for i := 0; i < 8; i++ {
		w := CellWeight(i, 8)
		if w <= prev {
			t.Fatalf("weights not increasing at %d", i)
		}
		prev = w
	}
}

func TestWeightedNoveltyScoreConscious(t *testing.T) {
	// Two candidates, equal plain novelty (500 new docs each), but one's
	// new docs are high-score and the other's are low-score. The
	// weighted novelty must prefer the high-score one.
	// head: scores ascend with ID → IDs 500..999 are the high cells.
	head := Build(ascendingPostings(0, 1000), 4, cfg)
	// tail: scores descend with ID → IDs 0..499 (the NEW ones are 500..999,
	// which are low-score).
	tailPost := make([]ir.Posting, 1000)
	for i := range tailPost {
		tailPost[i] = ir.Posting{DocID: uint64(i), Score: float64(1000 - i)}
	}
	tail := Build(tailPost, 4, cfg)
	// Reference covers IDs 0..499 in both cases.
	refIDs := make([]uint64, 500)
	for i := range refIDs {
		refIDs[i] = uint64(i)
	}
	ref := cfg.FromIDs(refIDs)
	headNov, err := WeightedNovelty(ref, 500, head)
	if err != nil {
		t.Fatal(err)
	}
	tailNov, err := WeightedNovelty(ref, 500, tail)
	if err != nil {
		t.Fatal(err)
	}
	if headNov <= tailNov {
		t.Fatalf("head weighted novelty %v not above tail %v", headNov, tailNov)
	}
	// Both are bounded by the plain novelty (weights ≤ 1).
	if headNov > 520 || tailNov > 520 {
		t.Fatalf("weighted novelty exceeds plain novelty: head %v tail %v", headNov, tailNov)
	}
}

func TestWeightedNoveltyFullyCovered(t *testing.T) {
	h := Build(ascendingPostings(0, 400), 4, cfg)
	ids := make([]uint64, 400)
	for i := range ids {
		ids[i] = uint64(i)
	}
	ref := cfg.FromIDs(ids)
	nov, err := WeightedNovelty(ref, 400, h)
	if err != nil {
		t.Fatal(err)
	}
	// MIPs resemblance noise (σ ≈ 0.054 at r=0.25 with 64 perms)
	// propagates to ≈±25 docs here; assert well under the 400-doc plain
	// novelty a fully-new peer would score.
	if nov > 100 {
		t.Fatalf("fully-covered weighted novelty = %v, want ≈0 (≤100)", nov)
	}
}
