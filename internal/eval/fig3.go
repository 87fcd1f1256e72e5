package eval

import (
	"fmt"

	"iqn/internal/core"
	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// This file regenerates Figure 3 (Section 8.2): relative recall as a
// function of the number of queried peers, comparing CORI (quality-only)
// against IQN with MIPs and Bloom-filter synopses at two lengths, on the
// paper's two collection-assignment strategies.

// SeriesSpec describes one curve: a routing method over a synopsis
// deployment.
type SeriesSpec struct {
	// Name labels the curve.
	Name string
	// Method is the routing strategy.
	Method minerva.Method
	// Kind and Bits configure the synopses peers publish for this curve.
	Kind synopsis.Kind
	Bits int
	// Aggregation selects the multi-keyword aggregation (Section 6).
	Aggregation core.AggregationMode
	// Conjunctive switches the query model.
	Conjunctive bool
	// HistogramCells > 0 publishes and uses score histograms.
	HistogramCells int
	// TotalBudgetBits > 0 activates adaptive synopsis lengths.
	TotalBudgetBits int
	// BudgetPolicy selects the adaptive-length benefit notion.
	BudgetPolicy core.BenefitPolicy
}

// Fig3Config parameterizes a recall-vs-peers experiment.
type Fig3Config struct {
	// CorpusDocs and VocabSize size the synthetic GOV substitute
	// (defaults 20000 docs; the paper's corpus is 1.5M — adjust with the
	// CLI flags for bigger runs).
	CorpusDocs, VocabSize int
	// Strategy spreads the corpus over peers.
	Strategy Strategy
	// Queries is the workload size (default 10, the paper's).
	Queries int
	// K is the result-list depth recall is measured at (default 50).
	K int
	// PeerCounts is the x-axis sweep (default 1..10).
	PeerCounts []int
	// Seed drives corpus and workload generation.
	Seed int64
	// Series are the curves; default: the paper's five.
	Series []SeriesSpec
}

func (c *Fig3Config) fillDefaults() {
	if c.CorpusDocs <= 0 {
		c.CorpusDocs = 20000
	}
	if c.VocabSize <= 0 {
		c.VocabSize = c.CorpusDocs / 10
	}
	if c.Strategy.F == 0 && c.Strategy.Fragments == 0 {
		c.Strategy = Strategy{Fragments: 100, R: 10, Offset: 2}
	}
	if c.Queries <= 0 {
		c.Queries = 10
	}
	if c.K <= 0 {
		c.K = 50
	}
	if len(c.PeerCounts) == 0 {
		c.PeerCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if len(c.Series) == 0 {
		c.Series = DefaultFig3Series()
	}
}

// DefaultFig3Series returns the paper's five curves: CORI plus IQN with
// MIPs/Bloom synopses at 1024 and 2048 bits.
func DefaultFig3Series() []SeriesSpec {
	return []SeriesSpec{
		{Name: "CORI", Method: minerva.MethodCORI, Kind: synopsis.KindMIPs, Bits: 1024},
		{Name: "MIPs 32", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 1024},
		{Name: "BF 1024", Method: minerva.MethodIQN, Kind: synopsis.KindBloom, Bits: 1024},
		{Name: "MIPs 64", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048},
		{Name: "BF 2048", Method: minerva.MethodIQN, Kind: synopsis.KindBloom, Bits: 2048},
	}
}

// PriorSeries returns the SIGIR'05 baseline curve (abl-prior).
func PriorSeries() SeriesSpec {
	return SeriesSpec{Name: "Prior(SIGIR05)", Method: minerva.MethodPrior, Kind: synopsis.KindBloom, Bits: 2048}
}

// config is the deployment the curve's peers publish under.
func (s SeriesSpec) config() minerva.Config {
	return minerva.Config{
		SynopsisKind:    s.Kind,
		SynopsisBits:    s.Bits,
		HistogramCells:  s.HistogramCells,
		TotalBudgetBits: s.TotalBudgetBits,
		BudgetPolicy:    s.BudgetPolicy,
	}
}

// options is how the curve's queries are routed at a given peer budget.
// The initiator's local result is merged in for every method
// identically: the paper measures what the network contributes on top.
func (s SeriesSpec) options(maxPeers int) minerva.SearchOptions {
	return minerva.SearchOptions{
		MaxPeers:      maxPeers,
		Method:        s.Method,
		Aggregation:   s.Aggregation,
		Conjunctive:   s.Conjunctive,
		UseHistograms: s.HistogramCells > 0,
	}
}

// Fig3 runs the experiment and returns one recall curve per series,
// micro-averaged over the query workload.
func Fig3(cfg Fig3Config) ([]Series, error) {
	cfg.fillDefaults()
	tb, err := newTestbed(cfg)
	if err != nil {
		return nil, err
	}
	return tb.curves(cfg.Series, cfg.PeerCounts)
}

// curves measures recall at every peer count for every series.
func (tb *testbed) curves(specs []SeriesSpec, peerCounts []int) ([]Series, error) {
	networks := map[SeriesSpec]*minerva.Network{}
	defer func() {
		for _, n := range networks {
			n.Close()
		}
	}()
	out := make([]Series, len(specs))
	for si, spec := range specs {
		// Series that differ only in how they route share one network.
		published := spec
		published.Name, published.Method, published.Aggregation, published.Conjunctive = "", 0, 0, false
		net := networks[published]
		if net == nil {
			var err error
			if net, err = tb.deploy(transport.NewInMem(), spec.config()); err != nil {
				return nil, fmt.Errorf("eval: deploy %s: %w", spec.Name, err)
			}
			networks[published] = net
		}
		out[si].Name = spec.Name
		for _, peers := range peerCounts {
			if peers > len(net.Peers) {
				continue
			}
			recall, err := tb.recall(net, net.Peers, spec.options(peers), nil)
			if err != nil {
				return nil, fmt.Errorf("eval: %s %w", spec.Name, err)
			}
			out[si].Points = append(out[si].Points, Point{X: float64(peers), Y: recall})
		}
	}
	return out, nil
}
