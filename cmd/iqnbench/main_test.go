package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iqn/internal/eval"
)

// TestUnknownExperimentListsRegistry: a mistyped -exp exits 2 and names
// every registered experiment, so the fix is on the screen.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	for _, e := range eval.Experiments {
		if !strings.Contains(stderr.String(), e.Name) {
			t.Errorf("error does not list %q:\n%s", e.Name, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected stdout: %s", stdout.String())
	}
}

// TestRunWritesTableAndJSON drives one cheap experiment through every
// output path: table on stdout, CSV, SVG file, and the -json document
// with the run's parameters and one record keyed by the result's tags.
func TestRunWritesTableAndJSON(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "fig2right", "-runs", "1", "-fixedsize", "500", "-seed", "3", "-svgdir", dir, "-json", jsonPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(collection size 500)") || !strings.Contains(stdout.String(), "MIPs 64") {
		t.Fatalf("table:\n%s", stdout.String())
	}
	if svg, err := os.ReadFile(filepath.Join(dir, "fig2right.svg")); err != nil || !strings.Contains(string(svg), "relative error") {
		t.Fatalf("svg: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seed        int64 `json:"seed"`
		Docs        int   `json:"docs"`
		Runs        int   `json:"runs"`
		Experiments []struct {
			Name      string        `json:"name"`
			ElapsedMs *int64        `json:"elapsedMs"`
			Series    []eval.Series `json:"series"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%v:\n%s", err, data)
	}
	if doc.Seed != 3 || doc.Docs != 20000 || doc.Runs != 1 || len(doc.Experiments) != 1 {
		t.Fatalf("document header: %+v", doc)
	}
	if e := doc.Experiments[0]; e.Name != "fig2right" || e.ElapsedMs == nil || len(e.Series) != 3 || len(e.Series[0].Points) != 8 {
		t.Fatalf("record: %+v", e)
	}

	stdout.Reset()
	if code := run(append(args[:8:8], "-csv"), &stdout, &stderr); code != 0 {
		t.Fatalf("csv exit code %d", code)
	}
	if !strings.HasPrefix(stdout.String(), "# Figure 2 (right)") || !strings.Contains(stdout.String(), "overlap,MIPs 64,HSs 32,BF 2048") {
		t.Fatalf("csv:\n%s", stdout.String())
	}
}
