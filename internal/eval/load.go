package eval

import (
	"fmt"
	"sort"
	"strings"

	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// This file measures per-peer load distribution. Section 8.2 closes on
// the observation that "response times are a highly superlinear function
// of load when peers … are heavily utilized": a router that concentrates
// queries on a few "best" peers hurts latency even at equal recall.
// Quality-only routing sends every query for popular terms to the same
// top peers; IQN's novelty term naturally spreads plans across
// complementary peers. This experiment quantifies that spread.

// loadQueries is the workload size: load needs volume, whatever the
// recall experiments use.
const loadQueries = 50

// loadSeries are the two routers compared on equal synopses.
var loadSeries = []SeriesSpec{
	{Name: "CORI", Method: minerva.MethodCORI, Kind: synopsis.KindMIPs, Bits: 2048},
	{Name: "IQN MIPs 64", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048},
}

// LoadPoint is one method's load-distribution measurement over a
// workload.
type LoadPoint struct {
	// Series names the method.
	Series string `json:"series"`
	// Total is the total number of forwarded queries served.
	Total int64 `json:"total"`
	// Max is the busiest peer's load.
	Max int64 `json:"max"`
	// P90 is the 90th-percentile per-peer load.
	P90 int64 `json:"p90"`
	// Imbalance is Max divided by the ideal per-peer share
	// (Total/#peers): 1.0 is a perfect spread.
	Imbalance float64 `json:"imbalance"`
	// Recall is the micro-averaged recall, so spread isn't bought with
	// result quality.
	Recall float64 `json:"recall"`
}

// LoadResult holds one point per routing method.
type LoadResult struct {
	Points []LoadPoint `json:"load"`
}

// load runs the workload under each method on a fresh deployment and
// reports how the forwarded queries spread over peers.
func (tb *testbed) load(specs []SeriesSpec, maxPeers int) (*LoadResult, error) {
	res := &LoadResult{}
	for _, spec := range specs {
		net, err := tb.deploy(transport.NewInMem(), spec.config())
		if err != nil {
			return nil, fmt.Errorf("eval: load deploy %s: %w", spec.Name, err)
		}
		recall, err := tb.recall(net, net.Peers, spec.options(maxPeers), nil)
		loads := make([]int64, len(net.Peers))
		for i, p := range net.Peers {
			loads[i] = p.QueriesServed()
		}
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("eval: load %s %w", spec.Name, err)
		}
		sort.Slice(loads, func(i, j int) bool { return loads[i] < loads[j] })
		point := LoadPoint{Series: spec.Name, Recall: recall}
		for _, l := range loads {
			point.Total += l
		}
		point.Max = loads[len(loads)-1]
		point.P90 = loads[(len(loads)*9)/10]
		if point.Total > 0 {
			ideal := float64(point.Total) / float64(len(loads))
			point.Imbalance = float64(point.Max) / ideal
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Table renders the load points as an aligned text table.
func (r *LoadResult) Table() string {
	var b strings.Builder
	b.WriteString("# Per-peer load distribution (forwarded queries served)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %10s %8s\n", "series", "total", "max", "p90", "imbalance", "recall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %10.2f %8.3f\n",
			p.Series, p.Total, p.Max, p.P90, p.Imbalance, p.Recall)
	}
	b.WriteByte('\n')
	return b.String()
}
