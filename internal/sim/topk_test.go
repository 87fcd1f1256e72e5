package sim

import (
	"strings"
	"testing"
)

// TestTopKParityFaultFree is the streaming protocol's differential
// invariant: a fault-free scenario run under incremental top-k must
// produce byte-identical merged docs, the same routing plans, and the
// same (empty) error surface as the pull-everything twin — and a
// replay of the streaming run must reproduce its canonical traces byte
// for byte, chunk counts and early stops included.
func TestTopKParityFaultFree(t *testing.T) {
	rep, err := Run(Scenario{
		Name:          "topk-parity",
		Seed:          5,
		Queries:       10,
		Telemetry:     true,
		TopKStreaming: true,
		ChunkSize:     4,
		TopKParity:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("topk parity violated:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if len(rep.Outcomes) != 10 {
		t.Fatalf("%d outcomes, want 10", len(rep.Outcomes))
	}
	for _, out := range rep.Outcomes {
		if out.Err != "" {
			t.Fatalf("query %d failed: %s", out.Index, out.Err)
		}
		if out.Trace == "" {
			t.Fatalf("query %d has no trace", out.Index)
		}
		if len(out.Docs) == 0 {
			t.Fatalf("query %d returned nothing", out.Index)
		}
	}
	// The streaming run must actually stream — chunk pulls visible in
	// the metrics, not a silent fall-through to the pull path.
	if rep.Metrics.Counters["topk.chunks"] == 0 {
		t.Fatal("streaming run pulled no chunks — parity compared pull against pull")
	}
}

// TestTopKParityUnderKill re-checks the differential pack under
// deterministic churn: a peer killed mid-workload (and later revived)
// must cost both protocols the same peer on the same queries, with the
// merged docs still identical — the streaming path must drop the dead
// peer's partial chunks wholesale, exactly as the pull path drops its
// unanswered query.
func TestTopKParityUnderKill(t *testing.T) {
	rep, err := Run(Scenario{
		Name:          "topk-parity-kill",
		Seed:          7,
		Queries:       8,
		Telemetry:     true,
		TopKStreaming: true,
		ChunkSize:     3,
		TopKParity:    true,
		Events: []Event{
			{Before: 2, Kind: Kill, Peer: 3},
			{Before: 6, Kind: Revive, Peer: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("topk parity violated under kill:\n%s", strings.Join(rep.Violations, "\n"))
	}
	lost := 0
	for _, out := range rep.Outcomes {
		lost += len(out.Errors)
	}
	if lost == 0 {
		t.Fatal("kill event cost no peer — the churn case never ran")
	}
}

// TestTopKParityCrashOnQuery crashes a peer on its next incoming query
// call. The rule is scoped to the one forwarding RPC, so it fires on
// the same query at either chunk size: both twins must lose the same
// peer and still merge identical docs.
func TestTopKParityCrashOnQuery(t *testing.T) {
	rep, err := Run(Scenario{
		Name:          "topk-parity-crash-on-query",
		Seed:          7,
		Queries:       8,
		Telemetry:     true,
		TopKStreaming: true,
		ChunkSize:     3,
		TopKParity:    true,
		Events: []Event{
			{Before: 2, Kind: CrashOnQuery, Peer: 3, Nth: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("topk parity violated under crash-on-query:\n%s", strings.Join(rep.Violations, "\n"))
	}
	lost := 0
	for _, out := range rep.Outcomes {
		lost += len(out.Errors)
	}
	if lost == 0 {
		t.Fatal("crash-on-query cost the streaming run no peer — the rule never fired")
	}
}

// TestTopKParityRequiresStreaming pins the configuration guard.
func TestTopKParityRequiresStreaming(t *testing.T) {
	_, err := Run(Scenario{Name: "bad", Seed: 1, TopKParity: true})
	if err == nil || !strings.Contains(err.Error(), "TopKStreaming") {
		t.Fatalf("err = %v, want a TopKParity configuration error", err)
	}
}
