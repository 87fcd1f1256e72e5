package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/transport"
)

// This file measures tail latency and recall under overload: a fraction
// of peers serve every RPC with a large injected delay while a
// concurrent query workload runs against the network. The same workload
// runs twice — once "bare" (no budgets, no hedging, no breakers, no
// admission control) and once "hardened" (deadline budgets cap the
// fan-out, hedged directory reads race replicas, circuit breakers stop
// re-dialing known stragglers, and server-side admission control sheds
// excess load with fast rejects). The gap between the two latency
// distributions is what the overload layer buys; the reported-error and
// budget-expiry counts show the degradation is loud, not silent.

// The overload regime: how many peers straggle and by how much, the
// hardened mode's deadline budget, hedge delay and admission limits,
// and the load levels swept. Concurrency is what makes admission
// control bite.
const (
	overloadQueries        = 40
	overloadSlowPeers      = 2
	overloadSlowDelay      = 50 * time.Millisecond
	overloadBudget         = overloadSlowDelay / 5
	overloadHedgeDelay     = overloadBudget / 4
	overloadAdmissionLimit = 2
	overloadAdmissionQueue = 1
)

var overloadConcurrencies = []int{2, 8, 16}

// OverloadPoint is one (mode, load level) measurement over the full
// workload.
type OverloadPoint struct {
	// Mode is "bare" or "hardened".
	Mode string `json:"mode"`
	// Concurrency is the load level: how many initiators queried in
	// parallel.
	Concurrency int `json:"concurrency"`
	// P50Ms, P95Ms, P99Ms are query wall-clock latency percentiles in
	// milliseconds.
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	// Recall is micro-averaged relative recall against the fault-free
	// reference top-k.
	Recall float64 `json:"recall"`
	// Reported counts structured per-peer errors surfaced across the
	// workload (every degraded query names what it lost).
	Reported int `json:"reported"`
	// Rejected counts fast server-side ErrOverloaded rejects observed by
	// callers — load shed by admission control rather than queued.
	Rejected int `json:"rejected"`
	// BudgetExpired counts queries that ran out of deadline budget and
	// returned a merged partial top-k.
	BudgetExpired int `json:"budgetExpired"`
}

// OverloadResult holds one point per (load level, mode) pair, bare
// before hardened within each level.
type OverloadResult struct {
	Points []OverloadPoint `json:"overload"`
}

// overload runs the workload in both modes at every load level.
// Injected delays are real sleeps, so the latency distributions are
// wall-clock measurements — and so is which deadline fires first in
// hardened mode: its recall and error accounting move a little from run
// to run, unlike every other experiment's output.
func (tb *testbed) overload(concurrencies []int) (*OverloadResult, error) {
	res := &OverloadResult{}
	for _, conc := range concurrencies {
		for _, mode := range []string{"bare", "hardened"} {
			point, err := tb.overloadRun(mode, conc)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, point)
		}
	}
	return res, nil
}

func (tb *testbed) overloadRun(mode string, conc int) (OverloadPoint, error) {
	point := OverloadPoint{Mode: mode, Concurrency: conc}
	hardened := mode == "hardened"
	mcfg := minerva.Config{Replicas: systemsReplicas}
	if hardened {
		mcfg.HedgeDelay = overloadHedgeDelay
		mcfg.Breakers = &transport.BreakerConfig{FailureThreshold: 2, ProbeAfter: 8, Seed: tb.seed}
		mcfg.AdmissionLimit = overloadAdmissionLimit
		mcfg.AdmissionQueue = overloadAdmissionQueue
	}
	// No SetSleep override: injected delays burn real wall time so the
	// latency percentiles mean something.
	faulty := transport.NewFaulty(transport.NewInMem(), tb.seed)
	net, err := tb.deploy(faulty, mcfg)
	if err != nil {
		return point, fmt.Errorf("eval: overload %s: %w", mode, err)
	}
	defer net.Close()

	// Slow a deterministic subset of peers on their serving RPCs only
	// (query + directory reads); ring maintenance traffic stays fast so
	// the overlay itself is not the bottleneck under test. Initiators are
	// the healthy peers; each worker owns one so per-link breaker state
	// accumulates across its queries like a real client's.
	slowed, initiators := tb.victims(net, min(overloadSlowPeers, len(net.Peers)-1))
	for _, p := range slowed {
		for _, m := range []string{minerva.MethodQuery, directory.MethodGet} {
			faulty.AddRule(transport.Rule{To: p.Name(), Method: m, DelayProb: 1, Delay: overloadSlowDelay})
		}
	}

	// Pre-compute fault-free references sequentially so reference work
	// never pollutes the measured latencies.
	refs := make([][]ir.Result, len(tb.queries))
	for qi, q := range tb.queries {
		refs[qi] = net.ReferenceTopK(q.Terms, tb.k, false)
	}
	opts := minerva.SearchOptions{
		K:        tb.k,
		MaxPeers: systemsMaxPeers,
		Retry:    transport.RetryPolicy{MaxAttempts: 2, Seed: tb.seed, Sleep: noSleep},
	}
	if hardened {
		opts.Budget = overloadBudget
	}

	type outcome struct {
		elapsed time.Duration
		res     *minerva.SearchResult
		err     error
	}
	outcomes := make([]outcome, len(tb.queries))
	workers := min(conc, len(initiators))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			initiator := initiators[w]
			for qi := w; qi < len(tb.queries); qi += workers {
				out := &outcomes[qi]
				start := time.Now()
				out.res, out.err = initiator.Search(tb.queries[qi].Terms, opts)
				out.elapsed = time.Since(start)
			}
		}(w)
	}
	wg.Wait()

	lats := make([]time.Duration, 0, len(outcomes))
	var t tally
	for qi, out := range outcomes {
		if out.err != nil {
			return point, fmt.Errorf("eval: overload %s query %d: %w", mode, tb.queries[qi].ID, out.err)
		}
		lats = append(lats, out.elapsed)
		t.add(out.res.Results, refs[qi])
		point.Reported += len(out.res.Errors) + len(out.res.Directory.Errors)
		for _, pe := range out.res.Errors {
			if strings.Contains(pe.Err, "overloaded") {
				point.Rejected++
			}
		}
		for _, re := range out.res.Directory.Errors {
			if strings.Contains(re.Err, "overloaded") {
				point.Rejected++
			}
		}
		if out.res.BudgetExpired {
			point.BudgetExpired++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	point.P50Ms = percentileMs(lats, 50)
	point.P95Ms = percentileMs(lats, 95)
	point.P99Ms = percentileMs(lats, 99)
	point.Recall = t.recall()
	return point, nil
}

// percentileMs returns the nearest-rank percentile of sorted latencies,
// in milliseconds.
func percentileMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return float64(sorted[idx-1]) / float64(time.Millisecond)
}

// Table renders the two modes per load level as an aligned text table.
func (r *OverloadResult) Table() string {
	ms := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Millisecond)).Round(time.Millisecond)
	}
	var b strings.Builder
	b.WriteString("# Overload: tail latency and recall, bare vs hardened (budgets + hedging + breakers + admission control)\n")
	fmt.Fprintf(&b, "%-6s %-10s %-10s %-10s %-10s %-8s %-10s %-10s %s\n",
		"conc", "mode", "p50", "p95", "p99", "recall", "reported", "rejected", "budget-expired")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %-10s %-10s %-10s %-10s %-8.3f %-10d %-10d %d\n",
			p.Concurrency, p.Mode, ms(p.P50Ms), ms(p.P95Ms), ms(p.P99Ms),
			p.Recall, p.Reported, p.Rejected, p.BudgetExpired)
	}
	return b.String()
}
