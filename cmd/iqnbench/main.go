// Command iqnbench regenerates the paper's figures, the ablations and
// the systems experiments as text tables (and optionally CSV, SVG and
// JSON). The experiments are the entries of eval.Experiments:
//
//	iqnbench -exp fig2left                        # Figure 2, left panel
//	iqnbench -exp fig2right -runs 50              # Figure 2, right panel
//	iqnbench -exp fig3left  -docs 60000           # Figure 3, (6 choose 3)
//	iqnbench -exp fig3right -docs 60000           # Figure 3, sliding window
//	iqnbench -exp aggregation|histogram|budget|hetero|prior
//	iqnbench -exp cost|load|chaos|churn|overload  # systems experiments
//	iqnbench -exp adaptive                        # query-log prior vs cold IQN, inflated-publisher defense
//	iqnbench -exp all                             # everything, default sizes
//
// The defaults are laptop-scale (20k documents); raise -docs for runs
// closer to the paper's 1.5M-document GOV corpus.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"iqn/internal/eval"
)

// benchOutput is the machine-readable form of a bench run (-json): the
// run's parameters plus one record per executed experiment. Committed
// artifacts (BENCH_adaptive.json, BENCH_churn.json) use this shape.
type benchOutput struct {
	Seed        int64         `json:"seed"`
	Docs        int           `json:"docs"`
	Runs        int           `json:"runs"`
	Queries     int           `json:"queries"`
	K           int           `json:"k"`
	Experiments []eval.Record `json:"experiments"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// exit code (2: bad usage, 1: an experiment or its gate failed).
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "iqnbench: "+format+"\n", a...)
		return code
	}
	var names []string
	for _, e := range eval.Experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("iqnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
		docs    = fs.Int("docs", 20000, "corpus size for fig3-style experiments")
		vocab   = fs.Int("vocab", 0, "vocabulary size (0: docs/10)")
		runs    = fs.Int("runs", 50, "runs per point for fig2-style experiments")
		sizeRt  = fs.Int("fixedsize", 10000, "fixed collection size for fig2right (paper text: 10000, chart label: 5000)")
		numQ    = fs.Int("queries", 10, "query workload size")
		k       = fs.Int("k", 50, "result-list depth")
		seed    = fs.Int64("seed", 2006, "master seed")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		sll     = fs.Bool("sll", false, "add a super-LogLog series to fig2 experiments")
		svgDir  = fs.String("svgdir", "", "also write each experiment's chart as an SVG file into this directory")
		peers   = fs.String("peers", "", "comma-separated peer counts (default 1..10)")
		jsonOut = fs.String("json", "", "also write machine-readable results for the selected experiments to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	selected := eval.Experiments
	if *exp != "all" {
		e, ok := eval.Find(*exp)
		if !ok {
			return fail(2, "unknown experiment %q (registered: %s, all)", *exp, strings.Join(names, ", "))
		}
		selected = []eval.Experiment{e}
	}

	// The workload sizes reach an experiment only when set on the command
	// line: an experiment whose canonical workload differs from the flag
	// defaults (adaptive) keeps it under a bare `-exp all`.
	p := eval.Params{Seed: *seed, Runs: *runs, FixedSize: *sizeRt, SuperLogLog: *sll}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "docs":
			p.Docs = *docs
		case "vocab":
			p.Vocab = *vocab
		case "queries":
			p.Queries = *numQ
		case "k":
			p.K = *k
		}
	})
	if *peers != "" {
		for _, s := range strings.Split(*peers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fail(2, "bad -peers entry %q", s)
			}
			p.PeerCounts = append(p.PeerCounts, n)
		}
	}

	output := benchOutput{Seed: *seed, Docs: *docs, Runs: *runs, Queries: *numQ, K: *k, Experiments: []eval.Record{}}
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(p)
		if err != nil {
			return fail(1, "%v", err)
		}
		elapsed := time.Since(start)
		output.Experiments = append(output.Experiments, eval.Record{Name: e.Name, ElapsedMs: elapsed.Milliseconds(), Result: res})
		curves, isCurves := res.(*eval.Curves)
		if isCurves && *svgDir != "" {
			path := filepath.Join(*svgDir, e.Name+".svg")
			if err := os.WriteFile(path, []byte(curves.SVG()), 0o644); err != nil {
				fmt.Fprintf(stderr, "iqnbench: write %s: %v\n", path, err)
			} else {
				fmt.Fprintf(stderr, "[wrote %s]\n", path)
			}
		}
		if isCurves && *csv {
			fmt.Fprint(stdout, curves.CSV())
		} else {
			fmt.Fprint(stdout, res.Table())
		}
		if gated, ok := res.(interface{ Gate() error }); ok {
			if err := gated.Gate(); err != nil {
				return fail(1, "%s: %v", e.Name, err)
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.Name, elapsed.Round(time.Millisecond))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(output, "", "  ")
		if err != nil {
			return fail(1, "marshal results: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fail(1, "write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(stderr, "[wrote %s]\n", *jsonOut)
	}
	return 0
}
