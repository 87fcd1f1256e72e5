package sim

import (
	"strings"
	"testing"
	"time"

	"iqn/internal/core"
	"iqn/internal/minerva"
)

// TestCacheParityFaultFree is the tentpole invariant: a fault-free
// scenario run with the directory read cache armed must be
// byte-identical — merged docIDs, routing plans, canonical traces,
// error text — to the same scenario run uncached. The small 2-peer
// network makes initiators repeat across the workload, so the cached
// run genuinely serves hits (asserted below), not just cold misses.
func TestCacheParityFaultFree(t *testing.T) {
	rep, err := Run(Scenario{
		Name:              "cache-parity",
		Seed:              5,
		Queries:           12,
		Fragments:         8,
		Window:            4,
		Offset:            4,
		Telemetry:         true,
		DirectoryCacheTTL: time.Minute,
		CacheParity:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("cache parity violated:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if len(rep.Outcomes) != 12 {
		t.Fatalf("%d outcomes, want 12", len(rep.Outcomes))
	}
	for _, out := range rep.Outcomes {
		if out.Err != "" {
			t.Fatalf("query %d failed: %s", out.Index, out.Err)
		}
		if out.Trace == "" {
			t.Fatalf("query %d has no trace", out.Index)
		}
	}
	if hits := rep.Metrics.Counters["directory.cache_hits"]; hits == 0 {
		t.Fatal("cached run served no hits — the parity check compared two cold runs")
	}
}

// TestCacheParityAcrossMaintenance re-checks parity when the workload
// interleaves deterministic churn: a maintenance round (republish +
// prune) and an anti-entropy sweep. Invalidation must keep the cached
// run's answers identical to the uncached run's — stale cache entries
// surviving the churn would diverge the merged docs.
func TestCacheParityAcrossMaintenance(t *testing.T) {
	rep, err := Run(Scenario{
		Name:              "cache-parity-maintenance",
		Seed:              5,
		Queries:           10,
		Fragments:         8,
		Window:            4,
		Offset:            4,
		Telemetry:         true,
		DirectoryCacheTTL: time.Hour, // TTL cannot save us; invalidation must
		CacheParity:       true,
		Events: []Event{
			{Before: 4, Kind: Maintenance},
			{Before: 7, Kind: AntiEntropy},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("cache parity violated across maintenance:\n%s", strings.Join(rep.Violations, "\n"))
	}
}

func TestCacheParityRequiresTTL(t *testing.T) {
	_, err := Run(Scenario{Name: "bad", Seed: 1, CacheParity: true})
	if err == nil || !strings.Contains(err.Error(), "DirectoryCacheTTL") {
		t.Fatalf("err = %v, want a CacheParity/TTL configuration error", err)
	}
}

// TestTwinViolationsSwitches: the parity comparator flags every field
// it always compares, and the trace and lost-peer set only when asked,
// each violation under the check's prefix.
func TestTwinViolationsSwitches(t *testing.T) {
	base := QueryOutcome{
		Docs:    []uint64{1, 2},
		Planned: []core.PeerID{"a", "b"},
		Errors:  []minerva.PerPeerError{{Peer: "c", Attempts: 1}},
		Trace:   "t",
	}
	same := base
	same.Errors = []minerva.PerPeerError{{Peer: "c", Attempts: 3}} // attempts may differ
	if v := twinViolations("x parity", "twin", &Report{Outcomes: []QueryOutcome{base}},
		&Report{Outcomes: []QueryOutcome{same}}, true, true); len(v) != 0 {
		t.Fatalf("equal outcomes flagged: %v", v)
	}
	for _, tc := range []struct {
		name        string
		mut         func(*QueryOutcome)
		trace, lost bool
		want        string // "" when the switch leaves the field unchecked
	}{
		{"docs", func(o *QueryOutcome) { o.Docs = []uint64{2, 1} }, false, false, "merged docs"},
		{"plan", func(o *QueryOutcome) { o.Planned = []core.PeerID{"a"} }, false, false, "routing plans"},
		{"error", func(o *QueryOutcome) { o.Err = "boom" }, false, false, "errors"},
		{"trace on", func(o *QueryOutcome) { o.Trace = "u" }, true, false, "canonical traces"},
		{"trace off", func(o *QueryOutcome) { o.Trace = "u" }, false, true, ""},
		{"lost on", func(o *QueryOutcome) { o.Errors = nil }, false, true, "lost-peer sets"},
		{"lost off", func(o *QueryOutcome) { o.Errors = nil }, true, false, ""},
	} {
		other := base
		tc.mut(&other)
		v := twinViolations("x parity", "twin", &Report{Outcomes: []QueryOutcome{base}},
			&Report{Outcomes: []QueryOutcome{other}}, tc.trace, tc.lost)
		if tc.want == "" {
			if len(v) != 0 {
				t.Errorf("%s: flagged %v", tc.name, v)
			}
			continue
		}
		if len(v) != 1 || !strings.HasPrefix(v[0], "x parity: query 0 "+tc.want) {
			t.Errorf("%s: got %v, want one %q violation", tc.name, v, tc.want)
		}
	}
}
