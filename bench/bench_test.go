package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// toy shrinks a workload to smoke-test size: the same options and the same
// script over 8 peers, a tenth of the corpus and a few dozen
// searches.
func (w workload) toy() workload {
	w.CorpusDocs /= 10
	if w.Fragments > 16 {
		w.Fragments = 16
	}
	w.Pool = 40
	if w.PassOps > 0 {
		w.PassOps = 40
	}
	if w.RepublishSearches > 0 {
		w.RepublishSearches = 1
	}
	if w.OpenRate > 0 {
		w.OpenRate, w.OpenSeconds = 100, 0.3
	}
	return w
}

func (m metricDef) appliesTo(workload string) bool {
	if len(m.Only) == 0 {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// TestSmoke runs every workload at toy size, timed and traced, and checks
// the shape of what a run reports: the run checks out, every metric the
// contract line must carry is there, and the traced run left its trace.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w.toy()
		t.Run(w.Name, func(t *testing.T) {
			scratch := t.TempDir()
			timed, err := runWorkload(w, 7, 0, false, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted < minPasses*w.passOps() {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d problems=%v",
					timed.Correct, timed.Attempted, timed.Failed, timed.Problems)
			}
			line := driverMetrics(timed)
			for _, d := range endToEnd {
				m, ok := line[d.Name]
				switch {
				case d.Gate == 0 && ok:
					t.Errorf("%s is not in BENCHMARK.json but is on the result line", d.Name)
				case d.Gate > 0 && (!ok || m.Value <= 0 || m.Unit != d.Unit):
					t.Errorf("%s on the result line: %+v (present %v)", d.Name, m, ok)
				}
				if _, ok := timed.Metrics[d.Name]; ok != d.appliesTo(w.Name) {
					t.Errorf("%s reported: %v, applies: %v", d.Name, ok, d.appliesTo(w.Name))
				}
			}

			traced, err := runWorkload(w, 7, 0, true, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run: %v", traced.Problems)
			}
			line = driverMetrics(traced)
			if len(line) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, the catalogue %d", len(line), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := traced.Metrics[d.Name]; !ok {
					t.Errorf("%s missing from the traced run", d.Name)
				}
			}
			if traced.Metrics["minerva.search_self_us"].Value <= 0 || traced.Metrics["core.route_us"].Value <= 0 {
				t.Errorf("the ledger is empty: %+v", traced.Metrics)
			}
			if st, err := os.Stat(traced.TraceFile); err != nil || st.Size() == 0 {
				t.Errorf("trace file %s: %v", traced.TraceFile, err)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and the README.md tables from the catalogue")

func better(d metricDef) string {
	if d.Higher {
		return "higher"
	}
	return "lower"
}

// golden compares a generated file (or, with markers, the part of it
// between them) with what is on disk; -update writes it instead.
func golden(t *testing.T, path, begin, end, want string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	have, prefix, suffix := string(data), "", ""
	if begin != "" {
		i, j := strings.Index(have, begin), strings.Index(have, end)
		if i < 0 || j < i {
			t.Fatalf("%s: markers %q .. %q not found", path, begin, end)
		}
		prefix, suffix = have[:i+len(begin)], have[j:]
		have = have[i+len(begin) : j]
	}
	if have == want {
		return
	}
	if !*update {
		t.Fatalf("%s is out of date with the catalogue; run go test -update", path)
	}
	if err := os.WriteFile(path, []byte(prefix+want+suffix), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json generated from the workload table
// and the catalogue.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.Gate > 0 {
			spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, better(d), d.Gate})
		}
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, better(d)})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "../BENCHMARK.json", "", "", string(data)+"\n")
}

// TestReadmeCatalogue keeps the README's metric tables generated from the
// catalogue.
func TestReadmeCatalogue(t *testing.T) {
	var b strings.Builder
	b.WriteString("\n| name | unit | better | bound | gate | what it is |\n|---|---|---|---|---|---|\n")
	for _, d := range endToEnd {
		bound := fmt.Sprintf("%g%%", d.Bound*100)
		if d.Absolute {
			bound = fmt.Sprintf("%g absolute", d.Bound)
		}
		gate := "—"
		if d.Gate > 0 {
			gate = fmt.Sprintf("%g%%", d.Gate*100)
		}
		only := ""
		if len(d.Only) > 0 {
			only = " (" + strings.Join(d.Only, ", ") + " only)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s%s |\n", d.Name, d.Unit, better(d), bound, gate, d.Moves, only)
	}
	golden(t, "README.md", "<!-- catalogue: end to end -->\n", "<!-- /catalogue: end to end -->", b.String())

	b.Reset()
	b.WriteString("\n| name | unit | layer | better | should move |\n|---|---|---|---|---|\n")
	for _, d := range perLayer {
		module, _, _ := strings.Cut(d.Name, ".")
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, module, better(d), d.Moves)
	}
	golden(t, "README.md", "<!-- catalogue: per layer -->\n", "<!-- /catalogue: per layer -->", b.String())
}

func TestVerdict(t *testing.T) {
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Min: lo, Max: hi} }
	lower := metricDef{Name: "search_p50_ms", Bound: 0.10}
	higher := metricDef{Name: "search_qps", Higher: true, Bound: 0.10}
	exact := metricDef{Name: "rpcs_per_search", Bound: 0.005}
	recall := metricDef{Name: "recall_at_k", Higher: true, Bound: 0.005, Absolute: true}
	failed := metricDef{Name: "failed_search_frac", Absolute: true}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, cur metricValue
		want     string
	}{
		{"within the bound", lower, mv(1.00, 0.98, 1.02), mv(1.05, 1.03, 1.07), "ok"},
		{"slower, ranges apart", lower, mv(1.00, 0.98, 1.02), mv(1.20, 1.18, 1.22), "regressed"},
		{"slower, but the runs interleave and spread wider than the bound", lower, mv(1.00, 0.90, 1.25), mv(1.20, 1.00, 1.30), "unresolved"},
		{"same median, spread wider than the bound", lower, mv(1.00, 0.90, 1.10), mv(1.00, 0.85, 1.10), "unresolved"},
		{"wide spread, every new run better than every old one", lower, mv(1.00, 0.90, 1.10), mv(0.70, 0.60, 0.80), "ok"},
		{"throughput fell", higher, mv(1000, 990, 1010), mv(800, 790, 810), "regressed"},
		{"throughput rose", higher, mv(1000, 990, 1010), mv(1300, 1290, 1310), "ok"},
		{"exact count repeats", exact, mv(19.55, 19.55, 19.55), mv(19.55, 19.55, 19.55), "ok"},
		{"exact count 1% worse", exact, mv(19.55, 19.55, 19.55), mv(19.75, 19.75, 19.75), "regressed"},
		{"recall 0.01 lower", recall, mv(0.28, 0.28, 0.28), mv(0.27, 0.27, 0.27), "regressed"},
		{"recall 0.001 lower", recall, mv(0.28, 0.28, 0.28), mv(0.279, 0.279, 0.279), "ok"},
		{"a search failed", failed, mv(0, 0, 0), mv(0.001, 0.001, 0.001), "regressed"},
		{"none failed", failed, mv(0, 0, 0), mv(0, 0, 0), "ok"},
	} {
		if got, _ := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRootSelfTime checks the ledger's arithmetic: a root's self time is
// its duration minus the union of its children, however they overlap.
func TestRootSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Root: true, Name: "search", Peer: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "chord.successors", Start: 10, End: 30, Out: 5, In: 7},
		{ID: 3, Parent: 1, Name: "peer.query", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "peer.query", Start: 50, End: 80}, // overlaps 3
		{ID: 5, Parent: 1, Name: "peer.query", Start: 55, End: 60}, // inside 3
		{ID: 6, Name: "dir.post", Start: 0, End: 1000},             // outside any root
	}
	rs := roots(spans)
	if len(rs) != 1 {
		t.Fatalf("%d roots, want 1", len(rs))
	}
	r := rs[0]
	if r.Self != 100-(20+40) {
		t.Errorf("self = %d, want 40", r.Self)
	}
	if r.Calls["peer"] != 3 || r.Busy["peer"] != 30+30+5 || r.Calls["chord"] != 1 || r.In["chord"] != 7 {
		t.Errorf("per-family sums: %+v", r)
	}
}
