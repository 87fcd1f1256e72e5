package eval

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// swap sets a package-level regime variable for the duration of a test.
func swap[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// TestRegistry runs every registered experiment twice at tiny scale —
// 1,200 documents, 7-peer networks, short sweeps — and checks what the
// CLI relies on: a non-empty table, a JSON record that carries the
// result under its own keys and survives a round trip, and byte-
// identical output across the two runs. Overload's latencies are wall
// clock and its hardened-mode accounting depends on which deadline
// fires first, so only its (mode × concurrency) row set must repeat.
func TestRegistry(t *testing.T) {
	tiny := Strategy{Fragments: 16, R: 4, Offset: 2} // 7 peers, heavy overlap
	swap(t, &sliding, tiny)
	swap(t, &chooseS, Strategy{F: 4, S: 2}) // 6 peers
	swap(t, &adaptiveStrategy, tiny)
	swap(t, &adaptivePeerSweep, []int{2, 4})
	swap(t, &chaosFailRates, []float64{0, 0.3})
	swap(t, &churnRingSizes, []int{12})
	swap(t, &churnRates, []float64{0.15})
	swap(t, &overloadConcurrencies, []int{4})
	p := Params{Seed: 7, Docs: 1200, Vocab: 400, Queries: 4, K: 20, Runs: 2, PeerCounts: []int{1, 3}}

	type output struct {
		table string
		body  []byte
	}
	run := func(t *testing.T, e Experiment) output {
		t.Helper()
		res, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if o, ok := res.(*OverloadResult); ok {
			for i := range o.Points {
				o.Points[i] = OverloadPoint{Mode: o.Points[i].Mode, Concurrency: o.Points[i].Concurrency}
			}
		}
		body, err := json.Marshal(Record{Name: e.Name, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		// The result alone must survive unmarshal → marshal unchanged.
		plain, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fresh := reflect.New(reflect.TypeOf(res).Elem()).Interface()
		if err := json.Unmarshal(plain, fresh); err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, plain)
		}
		if again, _ := json.Marshal(fresh); !bytes.Equal(plain, again) {
			t.Fatalf("JSON round trip changed the result:\n%s\n%s", plain, again)
		}
		return output{res.Table(), body}
	}

	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			first := run(t, e)
			if len(first.table) == 0 || first.table[len(first.table)-1] != '\n' {
				t.Fatalf("table empty or unterminated: %q", first.table)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(first.body, &keys); err != nil {
				t.Fatalf("record is not a JSON object: %v\n%s", err, first.body)
			}
			if string(keys["name"]) != `"`+e.Name+`"` || keys["elapsedMs"] == nil || len(keys) < 3 {
				t.Fatalf("record lacks name, elapsedMs or result keys: %s", first.body)
			}
			second := run(t, e)
			if !bytes.Equal(first.body, second.body) {
				t.Errorf("JSON differs between two runs:\n%s\n%s", first.body, second.body)
			}
			if first.table != second.table {
				t.Errorf("table differs between two runs:\n%s\n%s", first.table, second.table)
			}
		})
	}
}

// TestAdaptiveGate pins the acceptance check iqnbench applies after
// printing the adaptive table: replay parity at any scale, the recall
// gates only on the canonical workload they were calibrated for.
func TestAdaptiveGate(t *testing.T) {
	good := AdaptiveReport{ParityOK: true, PeersSaved: 3, RecoveredFrac: 1.2, canonical: true}
	for name, tc := range map[string]struct {
		mutate func(*AdaptiveReport)
		fails  bool
	}{
		"canonical pass":                {func(*AdaptiveReport) {}, false},
		"parity lost":                   {func(r *AdaptiveReport) { r.ParityOK = false }, true},
		"no peers saved":                {func(r *AdaptiveReport) { r.PeersSaved = 0 }, true},
		"weak recovery":                 {func(r *AdaptiveReport) { r.RecoveredFrac = 0.5 }, true},
		"weak recovery off-canonical":   {func(r *AdaptiveReport) { r.RecoveredFrac, r.canonical = 0.5, false }, false},
		"parity lost off-canonical too": {func(r *AdaptiveReport) { r.ParityOK, r.canonical = false, false }, true},
	} {
		r := good
		tc.mutate(&r)
		if err := (&AdaptiveResult{&r}).Gate(); (err != nil) != tc.fails {
			t.Errorf("%s: Gate() = %v, want failure=%v", name, err, tc.fails)
		}
	}
}

// TestDesignInventoryMatchesRegistry keeps DESIGN.md's experiment index
// (§3) in step with the registry: the `cmd/iqnbench -exp <name>` cells
// of its table must name every registered experiment, in registry order.
func TestDesignInventoryMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\|.*`cmd/iqnbench -exp ([a-z0-9]+)` \\|$").FindAllSubmatch(doc, -1) {
		listed = append(listed, string(m[1]))
	}
	var registered []string
	for _, e := range Experiments {
		registered = append(registered, e.Name)
	}
	if !reflect.DeepEqual(listed, registered) {
		t.Fatalf("DESIGN.md §3 lists\n  %v\nthe registry has\n  %v", listed, registered)
	}
}

// TestDesignPackageMapMatchesTree keeps DESIGN.md's package map (§6) in
// step with the source tree: every file it names under a directory
// line must exist, and every non-test Go file under cmd/ and internal/
// must be named.
func TestDesignPackageMapMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := regexp.MustCompile("(?s)## 6\\. Package map\n.*?```\n(.*?)```").FindSubmatch(doc)
	if section == nil {
		t.Fatal("DESIGN.md has no §6 package map block")
	}
	named := map[string]bool{}
	for _, line := range strings.Split(string(section[1]), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		for _, f := range fields[1:] {
			if strings.HasSuffix(f, ".go") {
				named[fields[0]+f] = true
			}
		}
	}
	inTree := map[string]bool{}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join("../..", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, err := filepath.Rel("../..", path)
			inTree[filepath.ToSlash(rel)] = true
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for f := range named {
		if !inTree[f] {
			t.Errorf("DESIGN.md §6 names %s, which is not in the tree", f)
		}
	}
	for f := range inTree {
		if !named[f] {
			t.Errorf("%s is missing from DESIGN.md §6", f)
		}
	}
}
