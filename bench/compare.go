package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// verdict judges one end-to-end metric of one workload. worse is how much
// the new median is worse than the old one, as a share of the old median
// (or as a difference when the metric's bound is absolute).
//
//   - regressed: worse by more than the bound, and the two runs' ranges do
//     not explain it;
//   - unresolved: a run's own spread is wider than the bound and the two
//     ranges interleave, so the files cannot tell;
//   - ok: otherwise.
func verdict(d metricDef, old, cur metricValue) (status string, worse float64) {
	sign := 1.0
	if d.Higher {
		sign = -1
	}
	worse = sign * (cur.Value - old.Value)
	spread := math.Max(old.Max-old.Min, cur.Max-cur.Min)
	if !d.Absolute {
		if old.Value == 0 {
			if worse > 0 {
				return "regressed", math.Inf(1)
			}
			return "ok", 0
		}
		worse /= math.Abs(old.Value)
		spread /= math.Abs(old.Value)
	}
	interleave := old.Max >= cur.Min && cur.Max >= old.Min
	wide := spread > d.Bound && interleave
	switch {
	case worse > d.Bound && !wide:
		return "regressed", worse
	case wide:
		return "unresolved", worse
	default:
		return "ok", worse
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed.
func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	old, err := loadResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "old: %s  commit %s  seed %d\nnew: %s  commit %s  seed %d\n",
		oldPath, old.Envelope.Commit, old.Envelope.Seed, newPath, cur.Envelope.Commit, cur.Envelope.Seed)
	if old.Envelope.Seed != cur.Envelope.Seed {
		fmt.Fprintln(out, "warning: the seeds differ, so the inputs do; exact counts will not repeat")
	}
	oldBy := map[string]workloadResult{}
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	fmt.Fprintf(out, "\n%-14s %-22s %12s %-25s %12s %-25s %-22s %s\n",
		"workload", "metric", "old", "[min .. max]", "new", "[min .. max]", "new/old (base)", "verdict")
	counts := map[string]int{}
	for _, w := range cur.Workloads {
		ow, ok := oldBy[w.Name]
		if !ok {
			fmt.Fprintf(out, "%-14s only in the new file\n", w.Name)
			continue
		}
		if !w.Correct {
			fmt.Fprintf(out, "%-14s the new run failed its checks: %v\n", w.Name, w.Problems)
			counts["regressed"]++
		}
		for _, d := range endToEnd {
			o, okOld := ow.EndToEnd[d.Name]
			c, okNew := w.EndToEnd[d.Name]
			if !okOld || !okNew {
				continue
			}
			status, _ := verdict(d, o, c)
			counts[status]++
			rel := "n/a"
			if o.Value != 0 {
				rel = fmt.Sprintf("%.4f (%.4g %s)", c.Value/o.Value, o.Value, d.Unit)
			}
			fmt.Fprintf(out, "%-14s %-22s %12.4f %-25s %12.4f %-25s %-22s %s\n",
				w.Name, d.Name, o.Value, fmt.Sprintf("[%.4f .. %.4f]", o.Min, o.Max),
				c.Value, fmt.Sprintf("[%.4f .. %.4f]", c.Min, c.Max), rel, status)
		}
	}
	fmt.Fprintf(out, "\n%d ok, %d unresolved, %d regressed\n", counts["ok"], counts["unresolved"], counts["regressed"])
	return counts["regressed"] > 0, nil
}
