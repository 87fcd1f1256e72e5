package eval

import (
	"iqn/internal/core"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
)

// This file defines the ablation experiments of DESIGN.md: variations of
// the Figure 3 setup isolating one design choice each. All reuse the
// Fig3 driver with custom series.

// AblationAggregation compares the paper's two multi-keyword aggregation
// strategies (Section 6.2 per-peer vs 6.3 per-term), in both query
// models (abl-aggregation).
func AblationAggregation(cfg Fig3Config) ([]Series, error) {
	cfg.Series = []SeriesSpec{
		{Name: "per-peer disj", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048, Aggregation: core.PerPeer},
		{Name: "per-term disj", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048, Aggregation: core.PerTerm},
		{Name: "per-peer conj", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048, Aggregation: core.PerPeer, Conjunctive: true},
		{Name: "per-term conj", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048, Aggregation: core.PerTerm, Conjunctive: true},
	}
	return Fig3(cfg)
}

// AblationHistogram compares plain IQN against the Section 7.1
// score-conscious variant at equal total synopsis budget: the histogram
// series splits the same 2048 bits over 4 cells of 512 bits
// (abl-histogram).
func AblationHistogram(cfg Fig3Config) ([]Series, error) {
	cfg.Series = []SeriesSpec{
		{Name: "IQN plain 2048", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048},
		{Name: "IQN hist 4x512", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 512, HistogramCells: 4},
	}
	return Fig3(cfg)
}

// AblationBudget compares uniform per-term synopsis lengths against the
// Section 7.2 adaptive allocation at the same total budget per peer
// (abl-budget). The total budget is sized so both variants spend the
// same bits: 1024 per term that a peer actually indexes. Pass
// termsPerPeer ≤ 0 to measure the average term count from the
// experiment's own collections — the only way the comparison is
// apples-to-apples.
func AblationBudget(cfg Fig3Config, termsPerPeer int) ([]Series, error) {
	cfg.fillDefaults()
	tb, err := newTestbed(cfg)
	if err != nil {
		return nil, err
	}
	if termsPerPeer <= 0 {
		total := 0
		for _, col := range tb.cols {
			terms := map[string]struct{}{}
			for _, d := range col.Docs {
				for _, t := range d.Terms {
					terms[t] = struct{}{}
				}
			}
			total += len(terms)
		}
		termsPerPeer = total / len(tb.cols)
	}
	total := 1024 * termsPerPeer
	return tb.curves([]SeriesSpec{
		{Name: "uniform 1024", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 1024},
		{Name: "adaptive list-length", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs,
			TotalBudgetBits: total, BudgetPolicy: core.BenefitListLength},
		{Name: "adaptive quantile", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs,
			TotalBudgetBits: total, BudgetPolicy: core.BenefitQuantileMass},
	}, cfg.PeerCounts)
}

// AblationPrior appends the SIGIR'05 baseline to the default Figure 3
// series (abl-prior).
func AblationPrior(cfg Fig3Config) ([]Series, error) {
	cfg.Series = append(DefaultFig3Series(), PriorSeries())
	return Fig3(cfg)
}
