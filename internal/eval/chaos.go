package eval

import (
	"fmt"
	"strings"
	"time"

	"iqn/internal/minerva"
	"iqn/internal/transport"
)

// This file measures graceful degradation under peer failures: a sweep
// over peer-failure rates, with each rate run twice — once with failure
// re-routing (the default: lost peers are replaced by re-running
// Select-Best-Peer against the already-aggregated reference synopsis)
// and once without (losses are only reported). The gap between the two
// recall curves is what re-routing buys; the per-peer error counts show
// that degradation is loud (reported) rather than silent in both modes.

// chaosFailRates are the sweep points.
var chaosFailRates = []float64{0, 0.1, 0.2, 0.3, 0.4}

// ChaosPoint is one failure rate's measurement. It marshals under its Go
// field names: BENCH consumers read these keys.
type ChaosPoint struct {
	// FailRate is the fraction of peers crashed before the workload.
	FailRate float64
	// Killed is the resulting number of crashed peers.
	Killed int
	// RecallReroute and RecallNoReroute are micro-averaged relative
	// recalls with and without failure re-routing.
	RecallReroute, RecallNoReroute float64
	// LostReroute and LostNoReroute count the per-peer errors reported
	// across the workload in each mode (every lost selected peer is
	// reported, never silently dropped).
	LostReroute, LostNoReroute int
	// Replacements is the number of replacement peers re-routing queried.
	Replacements int
}

// ChaosResult is the sweep, one point per failure rate.
type ChaosResult struct {
	Points []ChaosPoint `json:"chaos"`
}

// noSleep keeps dead-peer retries and injected delays off the wall
// clock.
func noSleep(time.Duration) {}

// chaos runs the sweep. Each rate builds a fresh network over a
// fault-injecting transport, crashes the chosen fraction of peers —
// their directory posts stay behind as stale entries routing must
// recover from — and measures the workload with and without re-routing.
func (tb *testbed) chaos() (*ChaosResult, error) {
	res := &ChaosResult{}
	for _, rate := range chaosFailRates {
		faulty := transport.NewFaulty(transport.NewInMem(), tb.seed)
		faulty.SetSleep(noSleep)
		net, err := tb.deploy(faulty, minerva.Config{Replicas: systemsReplicas})
		if err != nil {
			return nil, fmt.Errorf("eval: chaos rate %0.2f: %w", rate, err)
		}
		point, err := tb.chaosPoint(net, faulty, rate)
		net.Close()
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func (tb *testbed) chaosPoint(net *minerva.Network, faulty *transport.Faulty, rate float64) (ChaosPoint, error) {
	point := ChaosPoint{FailRate: rate, Killed: int(rate * float64(len(net.Peers)))}
	crashed, alive := tb.victims(net, point.Killed)
	if len(alive) == 0 {
		return point, fmt.Errorf("eval: chaos rate %0.2f killed every peer", rate)
	}
	for _, p := range crashed {
		faulty.Crash(p.Name())
	}
	healRing(alive)
	opts := minerva.SearchOptions{
		MaxPeers: systemsMaxPeers,
		Retry:    transport.RetryPolicy{MaxAttempts: 3, Sleep: noSleep, Seed: tb.seed},
	}
	measure := func(noReroute bool) (recall float64, lost, replaced int, err error) {
		opts.NoReroute = noReroute
		recall, err = tb.recall(net, alive, opts, func(res *minerva.SearchResult) {
			lost += len(res.Errors)
			replaced += len(res.Rerouted)
		})
		if err != nil {
			err = fmt.Errorf("eval: chaos %w", err)
		}
		return recall, lost, replaced, err
	}
	var err error
	if point.RecallNoReroute, point.LostNoReroute, _, err = measure(true); err != nil {
		return point, err
	}
	point.RecallReroute, point.LostReroute, point.Replacements, err = measure(false)
	return point, err
}

// Table renders the sweep as an aligned text table.
func (r *ChaosResult) Table() string {
	var b strings.Builder
	b.WriteString("# Chaos: recall vs peer-failure rate, with and without failure re-routing\n")
	fmt.Fprintf(&b, "%-10s %-7s %-16s %-16s %-14s %-14s %s\n",
		"failrate", "killed", "recall(reroute)", "recall(report)", "lost(reroute)", "lost(report)", "replacements")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %-7d %-16.3f %-16.3f %-14d %-14d %d\n",
			p.FailRate, p.Killed, p.RecallReroute, p.RecallNoReroute, p.LostReroute, p.LostNoReroute, p.Replacements)
	}
	return b.String()
}
