// Command bench is the repository's benchmark: five search and publish
// workloads over a whole MINERVA network in one process, measured end to
// end with tracing off and layer by layer in a separate traced run. See
// README.md for the workloads, the metric catalogue and how to read a
// trace.
//
//	bench -workload cold-pull -seed 7 -seconds 6 -trace 0   one run, one JSON line
//	bench -seed 2006                                        every workload, both runs, a table
//	bench -compare old.json new.json                        judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// driverLine is the last line of a single run's output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 6

// scratchDir is where a run leaves its trace, its result file and the
// disk indexes it builds: bench/out from the repository root, out from
// inside bench/.
func scratchDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// runWorkload is one run of one workload in this process.
func runWorkload(w workload, seed int64, seconds float64, trace bool, scratch string) (*report, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if trace {
		return runTraced(w, seed, seconds, scratch)
	}
	return runTimed(w, seed, seconds, scratch)
}

// driverMetrics picks what the contract's last line carries: with tracing
// off every end-to-end metric BENCHMARK.json names, with tracing on every
// per-layer metric.
func driverMetrics(rep *report) map[string]driverMetric {
	out := map[string]driverMetric{}
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if !rep.Trace && d.Gate == 0 {
			continue
		}
		out[d.Name] = driverMetric{Value: rep.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return out
}

func main() {
	name := flag.String("workload", "", "run this workload only and print one JSON result line (default: run every workload)")
	seed := flag.Int64("seed", 2006, "seed of the corpus, the query pool and the draw sequence")
	seconds := flag.Float64("seconds", defaultSeconds, "how long a run measures")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	asJSON := flag.Bool("json", false, "print the result file instead of the table")
	out := flag.String("out", "", "where to write the result file (default <scratch>/results.json)")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		rep, err := runWorkload(*w, *seed, *seconds, *trace != 0, scratchDir())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "bench:", p)
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := enc.Encode(driverLine{
			Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: driverMetrics(rep),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		path := *out
		if path == "" {
			path = scratchDir() + "/results.json"
		}
		ok, err := runSuite(os.Stdout, *seed, *seconds, path, *asJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}
