package eval

import (
	"encoding/json"
	"fmt"
)

// Result is what an experiment measured. Table is the text iqnbench
// prints; the JSON form is an object whose keys iqnbench -json writes
// beside the experiment's name and wall time. A Result may also have a
// Gate() error method: an acceptance check on the measured numbers that
// the caller runs after reporting them.
type Result interface {
	Table() string
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the iqnbench -exp name.
	Name string
	// Title heads, and XLabel, XFmt and YLabel describe the axes of, a
	// figure-style experiment's table and chart (one whose Result is
	// *Curves). They are empty for tabular experiments, whose Table
	// writes its own heading.
	Title                string
	XLabel, XFmt, YLabel string

	measure func(Params) (Result, error)
}

// Run executes the experiment.
func (e Experiment) Run(p Params) (Result, error) {
	res, err := e.measure(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	if c, ok := res.(*Curves); ok {
		c.XLabel, c.XFmt, c.YLabel = e.XLabel, e.XFmt, e.YLabel
		if c.Title == "" {
			c.Title = e.Title
		}
	}
	return res, nil
}

// fig2 and fig3 translate the CLI's parameters into the figures'
// configurations.
func (p Params) fig2() Fig2Config {
	return Fig2Config{Runs: p.Runs, Seed: p.Seed, FixedSize: p.FixedSize, IncludeSuperLogLog: p.SuperLogLog}
}

func (p Params) fig3(strategy Strategy) Fig3Config {
	cfg := Fig3Config{CorpusDocs: p.Docs, VocabSize: p.Vocab, Strategy: strategy,
		Queries: p.Queries, K: p.K, Seed: p.Seed, PeerCounts: p.PeerCounts}
	cfg.fillDefaults()
	return cfg
}

// figure adapts a Figure 2 panel, recallVsPeers adapts a recall-vs-peers
// experiment over a collection-assignment strategy, and systems adapts
// an experiment that runs on the sliding-window testbed with a fixed
// workload size (0: the CLI's). The strategies are read when the
// experiment runs, not when the registry is built, so TestRegistry can
// shrink them.
func figure(panel func(Fig2Config) []Series) func(Params) (Result, error) {
	return func(p Params) (Result, error) { return &Curves{Series: panel(p.fig2())}, nil }
}

func recallVsPeers(strategy *Strategy, run func(Fig3Config) ([]Series, error)) func(Params) (Result, error) {
	return func(p Params) (Result, error) {
		series, err := run(p.fig3(*strategy))
		return &Curves{Series: series}, err
	}
}

func systems[R Result](queries int, run func(*testbed) (R, error)) func(Params) (Result, error) {
	return func(p Params) (Result, error) {
		if queries > 0 {
			p.Queries = queries
		}
		tb, err := newTestbed(p.fig3(sliding))
		if err != nil {
			return nil, err
		}
		return run(tb)
	}
}

const (
	recallLabel = "relative recall"
	errorLabel  = "relative error"
)

// Experiments is the registry, in the order `iqnbench -exp all` runs it
// and DESIGN.md lists it.
var Experiments = []Experiment{
	{Name: "fig2left", Title: "Figure 2 (left): relative error of resemblance estimation vs collection size (33% overlap)",
		XLabel: "docs", XFmt: "%.0f", YLabel: errorLabel, measure: figure(Fig2Left)},
	{Name: "fig2right", Title: "Figure 2 (right): relative error vs mutual overlap",
		XLabel: "overlap", XFmt: "%.3f", YLabel: errorLabel, measure: func(p Params) (Result, error) {
			cfg := p.fig2()
			cfg.fillDefaults()
			return &Curves{
				Title:  fmt.Sprintf("Figure 2 (right): relative error vs mutual overlap (collection size %d)", cfg.FixedSize),
				Series: Fig2Right(cfg),
			}, nil
		}},
	{Name: "fig3left", Title: "Figure 3 (left): recall vs queried peers, (6 choose 3) = 20 peers",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&chooseS, Fig3)},
	{Name: "fig3right", Title: "Figure 3 (right): recall vs queried peers, sliding window = 50 peers",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&sliding, Fig3)},
	{Name: "aggregation", Title: "Ablation: per-peer vs per-term aggregation (Section 6)",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&sliding, AblationAggregation)},
	{Name: "histogram", Title: "Ablation: plain vs score-histogram IQN (Section 7.1)",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&sliding, AblationHistogram)},
	{Name: "budget", Title: "Ablation: uniform vs adaptive synopsis budgets (Section 7.2)",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&sliding,
			func(cfg Fig3Config) ([]Series, error) { return AblationBudget(cfg, 0) })},
	{Name: "hetero", Title: "Ablation: heterogeneous MIPs lengths (Section 3.4)",
		XLabel: "docs", XFmt: "%.0f", YLabel: errorLabel, measure: figure(Fig2Hetero)},
	{Name: "prior", Title: "Ablation: IQN vs prior SIGIR'05 method",
		XLabel: "peers", XFmt: "%.0f", YLabel: recallLabel, measure: recallVsPeers(&sliding, AblationPrior)},
	{Name: "cost", measure: systems(0, func(tb *testbed) (*CostResult, error) { return tb.cost(DefaultFig3Series(), systemsMaxPeers) })},
	{Name: "churn", measure: systems(0, func(tb *testbed) (*ChurnResult, error) {
		kill, err := tb.churnKill()
		if err != nil {
			return nil, err
		}
		sweep, err := churnSweep(churnRingSizes, churnRates, len(tb.queries), tb.k, tb.seed)
		return &ChurnResult{Kill: kill, Sweep: sweep}, err
	})},
	{Name: "chaos", measure: systems(0, (*testbed).chaos)},
	{Name: "load", measure: systems(loadQueries, func(tb *testbed) (*LoadResult, error) { return tb.load(loadSeries, systemsMaxPeers) })},
	{Name: "overload", measure: systems(overloadQueries, func(tb *testbed) (*OverloadResult, error) { return tb.overload(overloadConcurrencies) })},
	{Name: "adaptive", measure: func(p Params) (Result, error) {
		report, err := adaptive(p)
		return &AdaptiveResult{report}, err
	}},
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Record is one experiment's entry in the iqnbench -json document: the
// name and wall time, followed by the Result's own keys.
type Record struct {
	Name      string
	ElapsedMs int64
	Result    Result
}

// MarshalJSON splices the header fields in front of the result object.
func (r Record) MarshalJSON() ([]byte, error) {
	head, err := json.Marshal(struct {
		Name      string `json:"name"`
		ElapsedMs int64  `json:"elapsedMs"`
	}{r.Name, r.ElapsedMs})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(r.Result)
	if err != nil {
		return nil, err
	}
	if len(body) < 3 || body[0] != '{' {
		return nil, fmt.Errorf("eval: %s result is not a JSON object with keys: %s", r.Name, body)
	}
	return append(append(head[:len(head)-1], ','), body[1:]...), nil
}
