package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envelope stamps a result file with what it was measured on.
type envelope struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpuModel"`
	Time       string  `json:"time"`
}

// workloadResult is one workload's two runs: the timed run's end-to-end
// metrics and the traced run's ledger. Spec carries the workload's sizes.
type workloadResult struct {
	Name      string                 `json:"name"`
	Spec      workload               `json:"spec"`
	Clients   int                    `json:"clients"`
	Passes    int                    `json:"passes"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	EndToEnd  map[string]metricValue `json:"endToEnd"`
	PerLayer  map[string]metricValue `json:"perLayer"`
	TraceFile string                 `json:"traceFile,omitempty"`
}

// suiteResult is a result file.
type suiteResult struct {
	Envelope  envelope         `json:"envelope"`
	Workloads []workloadResult `json:"workloads"`
}

func newEnvelope(seed int64, seconds float64) envelope {
	e := envelope{
		Commit: "unknown", Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// childRun runs one workload in a fresh process, so that heap state and
// the resident-set high-water mark do not leak from one workload into the
// next, and returns the report it printed.
func childRun(w workload, seed int64, seconds float64, trace bool) (*report, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0],
		"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.Name, t, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s (trace %s): no report printed", w.Name, t)
	}
	var rep report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.Name, t, err)
	}
	return &rep, nil
}

// runSuite runs every workload twice, timed then traced, writes the
// result file and prints it as a table (or as JSON). It reports whether
// every run checked out.
func runSuite(out io.Writer, seed int64, seconds float64, path string, asJSON bool) (bool, error) {
	res := suiteResult{Envelope: newEnvelope(seed, seconds)}
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.Name)
		timed, err := childRun(w, seed, seconds, false)
		if err != nil {
			return false, err
		}
		traced, err := childRun(w, seed, seconds, true)
		if err != nil {
			return false, err
		}
		wr := workloadResult{
			Name: w.Name, Spec: w, Clients: timed.Clients, Passes: timed.Passes,
			Correct:   timed.Correct && traced.Correct,
			Attempted: timed.Attempted, Failed: timed.Failed,
			Problems: append(timed.Problems, traced.Problems...),
			EndToEnd: timed.Metrics, PerLayer: traced.Metrics, TraceFile: traced.TraceFile,
		}
		ok = ok && wr.Correct
		res.Workloads = append(res.Workloads, wr)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	if asJSON {
		_, err = out.Write(append(data, '\n'))
		return ok, err
	}
	printTable(out, res)
	fmt.Fprintf(out, "\nresult file: %s\n", path)
	return ok, nil
}

func printTable(out io.Writer, res suiteResult) {
	e := res.Envelope
	fmt.Fprintf(out, "commit %s  seed %d  %s  GOMAXPROCS %d  nproc %d  %s\n",
		e.Commit, e.Seed, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel)
	row := func(d metricDef, mv metricValue) {
		n := ""
		if mv.N > 0 {
			n = fmt.Sprintf("n=%d", mv.N)
		}
		fmt.Fprintf(out, "  %-42s %14.4f %-6s [%.4f .. %.4f] of %d %s\n", d.Name, mv.Value, d.Unit, mv.Min, mv.Max, mv.Samples, n)
	}
	for _, w := range res.Workloads {
		status := "ok"
		if !w.Correct {
			status = "FAILED: " + strings.Join(w.Problems, "; ")
		}
		fmt.Fprintf(out, "\n%s  (%d clients, %d passes of %d searches, %d attempted, %d failed)  %s\n",
			w.Name, w.Clients, w.Passes, w.Spec.passOps(), w.Attempted, w.Failed, status)
		for _, d := range endToEnd {
			if mv, ok := w.EndToEnd[d.Name]; ok {
				row(d, mv)
			}
		}
		fmt.Fprintf(out, "  -- per layer, from the traced run (%s)\n", w.TraceFile)
		for _, d := range perLayer {
			mv := w.PerLayer[d.Name]
			if d.Name == "minerva.search_p99_ms" && mv.N < p99Samples {
				fmt.Fprintf(out, "  %-42s %14s        (fewer than %d samples)\n", d.Name, "n/a", p99Samples)
				continue
			}
			row(d, mv)
		}
	}
}
