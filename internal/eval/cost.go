package eval

import (
	"fmt"
	"strings"

	"iqn/internal/transport"
)

// This file measures the benefit/cost framing the paper's conclusions
// rest on: "the network cost of synopses posting (and updating) and the
// network cost and load per peer caused by query routing are the major
// performance issues" (§8.2). For each method it reports the recall per
// query against the bytes moved — split into the one-time publication
// cost and the per-query cost (directory lookups + query forwarding).

// CostPoint is one method's cost/benefit measurement.
type CostPoint struct {
	// Series names the method/synopsis combination.
	Series string `json:"series"`
	// PublishBytes is the one-time directory publication traffic.
	PublishBytes int64 `json:"publishBytes"`
	// QueryBytes is the average per-query traffic (PeerList fetches,
	// routing — which is local — and query forwarding).
	QueryBytes int64 `json:"queryBytes"`
	// QueryRPCs is the average per-query RPC count.
	QueryRPCs int64 `json:"queryRPCs"`
	// Recall is the micro-averaged relative recall at MaxPeers.
	Recall float64 `json:"recall"`
}

// CostResult holds one point per series, measured at MaxPeers queried
// peers.
type CostResult struct {
	MaxPeers int         `json:"-"`
	Points   []CostPoint `json:"cost"`
}

// cost deploys a fresh network per series and meters its publication
// and per-query traffic.
func (tb *testbed) cost(specs []SeriesSpec, maxPeers int) (*CostResult, error) {
	res := &CostResult{MaxPeers: maxPeers}
	for _, spec := range specs {
		inmem := transport.NewInMem()
		net, err := tb.deploy(inmem, spec.config())
		if err != nil {
			return nil, fmt.Errorf("eval: cost deploy %s: %w", spec.Name, err)
		}
		_, publishBytes := inmem.Stats()
		inmem.ResetStats()
		recall, err := tb.recall(net, net.Peers, spec.options(maxPeers), nil)
		rpcs, queryBytes := inmem.Stats()
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("eval: cost %s %w", spec.Name, err)
		}
		n := int64(len(tb.queries)) // newTestbed rejects an empty workload
		res.Points = append(res.Points, CostPoint{
			Series:       spec.Name,
			PublishBytes: publishBytes,
			QueryBytes:   queryBytes / n,
			QueryRPCs:    rpcs / n,
			Recall:       recall,
		})
	}
	return res, nil
}

// Table renders the cost points as an aligned text table.
func (r *CostResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Benefit/cost at %d queried peers\n", r.MaxPeers)
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %8s\n", "series", "publish(B)", "query(B)", "rpc/query", "recall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-16s %12d %12d %10d %8.3f\n",
			p.Series, p.PublishBytes, p.QueryBytes, p.QueryRPCs, p.Recall)
	}
	b.WriteByte('\n')
	return b.String()
}
