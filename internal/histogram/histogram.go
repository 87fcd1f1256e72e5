// Package histogram implements the score-conscious synopses of the
// paper's Section 7.1.
//
// Plain per-term synopses treat an index list as an unordered document
// set, which fits file sharing but wastes information in ranked
// retrieval: what matters is overlap among the *high-scoring* portions of
// index lists. A Histogram partitions a term's postings into cells by
// score range and keeps one synopsis per cell; novelty between two peers
// is then a weighted sum of per-cell novelties with higher weight on
// high-scoring cells.
package histogram

import (
	"iqn/internal/ir"
	"iqn/internal/synopsis"
)

// Cell is one score band of a term's postings: the half-open score range
// [Lo, Hi) — the top cell is closed at its maximum — plus the synopsis and
// exact count of the documents whose scores fall in it.
type Cell struct {
	// Lo and Hi bound the cell's score range.
	Lo, Hi float64
	// Synopsis summarizes the docIDs of the cell.
	Synopsis synopsis.Set
	// Count is the number of documents in the cell (exact at build time).
	Count int
}

// Histogram is a per-term, score-partitioned synopsis: equi-width score
// cells ordered from low scores (cell 0) to high scores.
type Histogram struct {
	// Cells holds the score bands, ascending by score.
	Cells []Cell
}

// Build partitions a postings list (sorted or unsorted) into numCells
// equi-width score cells between the list's minimum and maximum score and
// builds one synopsis per cell with the given configuration. An empty
// postings list yields a histogram with numCells empty cells spanning
// [0,0].
func Build(postings []ir.Posting, numCells int, cfg synopsis.Config) *Histogram {
	if numCells < 1 {
		numCells = 1
	}
	lo, hi := 0.0, 0.0
	if len(postings) > 0 {
		lo, hi = postings[0].Score, postings[0].Score
		for _, p := range postings {
			if p.Score < lo {
				lo = p.Score
			}
			if p.Score > hi {
				hi = p.Score
			}
		}
	}
	width := (hi - lo) / float64(numCells)
	h := &Histogram{Cells: make([]Cell, numCells)}
	for i := range h.Cells {
		h.Cells[i] = Cell{
			Lo:       lo + float64(i)*width,
			Hi:       lo + float64(i+1)*width,
			Synopsis: cfg.New(),
		}
	}
	for _, p := range postings {
		idx := numCells - 1
		if width > 0 {
			idx = int((p.Score - lo) / width)
			if idx >= numCells {
				idx = numCells - 1 // maximum score lands in the top cell
			}
		}
		h.Cells[idx].Synopsis.Add(p.DocID)
		h.Cells[idx].Count++
	}
	return h
}

// Count returns the total number of documents across all cells.
func (h *Histogram) Count() int {
	n := 0
	for _, c := range h.Cells {
		n += c.Count
	}
	return n
}

// SizeBits returns the total synopsis payload of the histogram.
func (h *Histogram) SizeBits() int {
	n := 0
	for _, c := range h.Cells {
		n += c.Synopsis.SizeBits()
	}
	return n
}

// Flatten unions all cells into one score-agnostic synopsis — the
// reference set "already covered", regardless of band. Cells without a
// synopsis (empty cells decoded off the wire) are skipped; a histogram
// with no synopses at all flattens to nil.
func (h *Histogram) Flatten() (synopsis.Set, error) {
	var acc synopsis.Set
	for _, c := range h.Cells {
		if c.Synopsis == nil {
			continue
		}
		if acc == nil {
			acc = c.Synopsis.Clone()
			continue
		}
		if err := acc.UnionInPlace(c.Synopsis); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// CellWeight returns the weight of cell i of n under the paper's
// "higher weight for overlap among high-scoring cells" rule: the
// normalized rank midpoint (i+1)/n, so the top band weighs 1 and the
// bottom band 1/n. Using rank rather than raw scores keeps weights
// comparable across peers whose score scales differ.
func CellWeight(i, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(i+1) / float64(n)
}

// WeightedNovelty estimates the score-conscious novelty of a candidate
// histogram against a reference synopsis (the flattened already-covered
// set): the weighted sum over the candidate's cells of
// Novelty(cell | ref), weighted by CellWeight. refCard is the estimated
// cardinality of the reference (< 0 to use the synopsis estimate).
//
// A document already covered is not novel regardless of which score band
// it was covered in, hence a single flattened reference; the score
// consciousness comes from weighting the *candidate's* bands, so peers
// whose high-scoring documents are new outrank peers that only add tail
// documents (Section 7.1).
func WeightedNovelty(ref synopsis.Set, refCard float64, cand *Histogram) (float64, error) {
	var sum float64
	n := len(cand.Cells)
	for i, c := range cand.Cells {
		if c.Count == 0 || c.Synopsis == nil {
			continue
		}
		nov, err := synopsis.EstimateNovelty(ref, c.Synopsis, refCard, float64(c.Count))
		if err != nil {
			return 0, err
		}
		sum += CellWeight(i, n) * nov
	}
	return sum, nil
}
