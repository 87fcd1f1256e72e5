// Package eval is the experiment harness: it regenerates every figure of
// the paper's evaluation (Figure 2, Section 3.3; Figure 3, Section 8.2)
// plus the ablations and systems experiments DESIGN.md calls out. Every
// experiment is one entry of the Experiments registry, runs on one
// shared testbed (testbed.go), and returns a Result that renders itself
// as a text table and as JSON.
package eval

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one measurement: X is the independent variable (collection
// size, overlap fraction, number of queried peers), Y the measured value
// (relative error, relative recall).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one labelled curve of a figure.
type Series struct {
	// Name labels the curve (e.g. "MIPs 64", "CORI").
	Name string `json:"name"`
	// Points are the measurements, ordered by X.
	Points []Point `json:"points"`
}

// Curves is the Result of a figure-style experiment: labelled series
// over a shared X axis. The labels come from the registry entry.
type Curves struct {
	Title          string   `json:"-"`
	XLabel, YLabel string   `json:"-"`
	XFmt           string   `json:"-"`
	Series         []Series `json:"series"`
}

// Table renders the curves as an aligned text table.
func (c *Curves) Table() string {
	return Table(c.Title, c.XLabel, c.Series, c.XFmt, "%.3f") + "\n"
}

// CSV renders the curves as comma-separated rows under a title comment.
func (c *Curves) CSV() string {
	return fmt.Sprintf("# %s\n%s\n", c.Title, CSV(c.XLabel, c.Series))
}

// SVG renders the curves as a line chart.
func (c *Curves) SVG() string {
	return SVG(c.Series, SVGOptions{Title: c.Title, XLabel: c.XLabel, YLabel: c.YLabel})
}

// xValues returns the sorted union of the series' X values.
func xValues(series []Series) []float64 {
	seen := map[float64]struct{}{}
	for _, s := range series {
		for _, p := range s.Points {
			seen[p.X] = struct{}{}
		}
	}
	xs := make([]float64, 0, len(seen))
	for x := range seen {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// Table renders series sharing the same X values as an aligned text
// table, X formatted by xfmt ("%.0f" style), Y by yfmt.
func Table(title, xlabel string, series []Series, xfmt, yfmt string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", title)
	widths := make([]int, len(series)+1)
	header := make([]string, len(series)+1)
	header[0] = xlabel
	for i, s := range series {
		header[i+1] = s.Name
	}
	rows := [][]string{header}
	for _, x := range xValues(series) {
		row := make([]string, len(series)+1)
		row[0] = fmt.Sprintf(xfmt, x)
		for i := range series {
			row[i+1] = "-"
			if y, ok := series[i].YAt(x); ok {
				row[i+1] = fmt.Sprintf(yfmt, y)
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders series sharing X values as comma-separated rows with a
// header line.
func CSV(xlabel string, series []Series) string {
	var sb strings.Builder
	sb.WriteString(xlabel)
	for _, s := range series {
		sb.WriteByte(',')
		sb.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	sb.WriteByte('\n')
	for _, x := range xValues(series) {
		fmt.Fprintf(&sb, "%g", x)
		for i := range series {
			sb.WriteByte(',')
			if y, ok := series[i].YAt(x); ok {
				fmt.Fprintf(&sb, "%g", y)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FindSeries returns the series with the given name, nil if absent.
func FindSeries(series []Series, name string) *Series {
	for i := range series {
		if series[i].Name == name {
			return &series[i]
		}
	}
	return nil
}

// YAt returns the Y value of the point with the given X, false if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
