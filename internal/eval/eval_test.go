package eval

import (
	"strings"
	"testing"
	"time"

	"iqn/internal/minerva"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// Small, fast configurations for CI; the CLI runs the paper-scale ones.

func smallFig2() Fig2Config {
	return Fig2Config{Runs: 6, Seed: 1, Sizes: []int{1000, 5000, 20000}, FixedSize: 5000,
		Overlaps: []float64{1.0 / 2, 1.0 / 4, 1.0 / 8}}
}

func smallFig3() Fig3Config {
	return Fig3Config{
		CorpusDocs: 3000,
		VocabSize:  2000,
		Strategy:   Strategy{Fragments: 20, R: 4, Offset: 2}, // 10 peers, heavy overlap
		Queries:    5,
		K:          30,
		PeerCounts: []int{1, 2, 3, 5, 8, 10},
		Seed:       7,
	}
}

// smallTestbed builds the shared testbed at test scale.
func smallTestbed(t *testing.T, cfg Fig3Config) *testbed {
	t.Helper()
	cfg.fillDefaults()
	tb, err := newTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestFig2LeftShape(t *testing.T) {
	series := Fig2Left(smallFig2())
	if len(series) != 3 {
		t.Fatalf("%d series, want 3", len(series))
	}
	mips := FindSeries(series, "MIPs 64")
	bf := FindSeries(series, "BF 2048")
	hs := FindSeries(series, "HSs 32")
	if mips == nil || bf == nil || hs == nil {
		t.Fatalf("missing series: %+v", series)
	}
	// The paper's headline shape: MIPs error low (≲0.2) and roughly flat
	// across collection sizes; Bloom filters blow up once overloaded
	// (20000 docs in 2048 bits).
	for _, p := range mips.Points {
		if p.Y > 0.4 {
			t.Errorf("MIPs error at %g docs = %v, want low", p.X, p.Y)
		}
	}
	bfBig, _ := bf.YAt(20000)
	mipsBig, _ := mips.YAt(20000)
	if bfBig < 3*mipsBig {
		t.Errorf("overloaded BF error %v not ≫ MIPs %v", bfBig, mipsBig)
	}
	bfSmall, _ := bf.YAt(1000)
	if bfBig < bfSmall {
		t.Errorf("BF error did not grow with size: %v at 1k, %v at 20k", bfSmall, bfBig)
	}
}

func TestFig2RightShape(t *testing.T) {
	series := Fig2Right(smallFig2())
	mips := FindSeries(series, "MIPs 64")
	bf := FindSeries(series, "BF 2048")
	if mips == nil || bf == nil {
		t.Fatal("missing series")
	}
	// MIPs and hash sketches stay accurate across overlap degrees; the
	// 5000-element collections overload the 2048-bit Bloom filter.
	for _, p := range mips.Points {
		if p.Y > 0.6 {
			t.Errorf("MIPs error at overlap %g = %v", p.X, p.Y)
		}
	}
	for _, p := range bf.Points {
		mipsY, _ := mips.YAt(p.X)
		if p.Y < mipsY {
			t.Errorf("BF error %v below MIPs %v at overlap %g (unexpected at this load)", p.Y, mipsY, p.X)
		}
	}
}

func TestFig2Hetero(t *testing.T) {
	cfg := smallFig2()
	cfg.Sizes = []int{2000, 10000}
	series := Fig2Hetero(cfg)
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	short := FindSeries(series, "MIPs 32/32")
	mixed := FindSeries(series, "MIPs 128/32")
	long := FindSeries(series, "MIPs 128/128")
	for _, x := range []float64{2000, 10000} {
		s, _ := short.YAt(x)
		m, _ := mixed.YAt(x)
		l, _ := long.YAt(x)
		// Mixed lengths degrade to the shorter vector's accuracy scale:
		// comparable to short/short, worse than long/long, but still a
		// working estimator (the Section 3.4 claim).
		if m > 2.5*s+0.1 {
			t.Errorf("mixed error %v far above short-vector error %v", m, s)
		}
		if l > m+0.05 && l > s {
			continue // long should be the best; tolerate estimator noise
		}
		if m > 1.0 {
			t.Errorf("mixed-length estimation broken: error %v", m)
		}
	}
}

func TestFig3SlidingWindowShape(t *testing.T) {
	series, err := Fig3(smallFig3())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series, want 5", len(series))
	}
	cori := FindSeries(series, "CORI")
	mips64 := FindSeries(series, "MIPs 64")
	if cori == nil || mips64 == nil {
		t.Fatal("missing series")
	}
	// Curves are (weakly) monotone in the number of peers and end high.
	for _, s := range series {
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < prev-0.1 {
				t.Errorf("%s recall drops from %v to %v at %g peers", s.Name, prev, p.Y, p.X)
			}
			if p.Y > prev {
				prev = p.Y
			}
		}
		if last := s.Points[len(s.Points)-1]; last.Y < 0.65 {
			t.Errorf("%s recall at all peers = %v, want high", s.Name, last.Y)
		}
	}
	// The headline claim: IQN beats CORI substantially at small peer
	// counts on overlapping collections.
	for _, x := range []float64{2, 3} {
		c, _ := cori.YAt(x)
		m, _ := mips64.YAt(x)
		if m <= c {
			t.Errorf("at %g peers IQN (%v) does not beat CORI (%v)", x, m, c)
		}
	}
}

func TestFig3ChooseSShape(t *testing.T) {
	cfg := smallFig3()
	cfg.Strategy = Strategy{F: 6, S: 3} // 20 peers
	cfg.PeerCounts = []int{1, 2, 3, 5, 7}
	cfg.Series = []SeriesSpec{
		{Name: "CORI", Method: minerva.MethodCORI, Kind: synopsis.KindMIPs, Bits: 1024},
		{Name: "MIPs 64", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048},
	}
	series, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cori := FindSeries(series, "CORI")
	mips := FindSeries(series, "MIPs 64")
	c, _ := cori.YAt(3)
	m, _ := mips.YAt(3)
	if m <= c {
		t.Errorf("choose-s: IQN %v not above CORI %v at 3 peers", m, c)
	}
}

func TestAblationAggregation(t *testing.T) {
	cfg := smallFig3()
	cfg.PeerCounts = []int{2, 5}
	cfg.Queries = 3
	series, err := AblationAggregation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	// Both disjunctive strategies must reach reasonable recall at 5
	// peers; conjunctive recall is measured against conjunctive
	// references so it must be populated too.
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
	}
}

func TestAblationHistogram(t *testing.T) {
	cfg := smallFig3()
	cfg.PeerCounts = []int{3}
	cfg.Queries = 3
	series, err := AblationHistogram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		y, ok := s.YAt(3)
		if !ok || y <= 0 {
			t.Fatalf("%s recall = %v, %v", s.Name, y, ok)
		}
	}
}

func TestAblationBudget(t *testing.T) {
	cfg := smallFig3()
	cfg.PeerCounts = []int{3}
	cfg.Queries = 3
	series, err := AblationBudget(cfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if y, ok := s.YAt(3); !ok || y <= 0 {
			t.Fatalf("%s recall missing", s.Name)
		}
	}
}

func TestAblationPrior(t *testing.T) {
	cfg := smallFig3()
	cfg.PeerCounts = []int{3}
	cfg.Queries = 3
	series, err := AblationPrior(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if FindSeries(series, "Prior(SIGIR05)") == nil {
		t.Fatal("prior series missing")
	}
}

func TestTableAndCSV(t *testing.T) {
	series := []Series{
		{Name: "A", Points: []Point{{1, 0.5}, {2, 0.7}}},
		{Name: "B", Points: []Point{{1, 0.3}}},
	}
	table := Table("demo", "x", series, "%.0f", "%.2f")
	if !strings.Contains(table, "# demo") || !strings.Contains(table, "0.50") {
		t.Fatalf("table:\n%s", table)
	}
	// B has no point at x=2: rendered as "-".
	if !strings.Contains(table, "-") {
		t.Fatalf("missing gap marker:\n%s", table)
	}
	csv := CSV("x", series)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || lines[0] != "x,A,B" {
		t.Fatalf("csv:\n%s", csv)
	}
	if lines[1] != "1,0.5,0.3" {
		t.Fatalf("csv row: %s", lines[1])
	}
	if lines[2] != "2,0.7," {
		t.Fatalf("csv gap row: %s", lines[2])
	}
}

// TestTestbedReferences checks the workload the testbed draws is
// answerable: every query has a non-empty centralized reference on a
// deployed network, and recall against it is a proper fraction.
func TestTestbedReferences(t *testing.T) {
	cfg := smallFig3()
	tb := smallTestbed(t, cfg)
	if len(tb.queries) != cfg.Queries {
		t.Fatalf("%d queries, want %d", len(tb.queries), cfg.Queries)
	}
	net, err := tb.deploy(transport.NewInMem(), minerva.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for _, q := range tb.queries {
		if len(net.ReferenceTopK(q.Terms, tb.k, false)) == 0 {
			t.Fatalf("query %d has empty reference", q.ID)
		}
	}
	seen := 0
	recall, err := tb.recall(net, net.Peers, minerva.SearchOptions{MaxPeers: 3}, func(*minerva.SearchResult) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if recall <= 0 || recall > 1 || seen != len(tb.queries) {
		t.Fatalf("recall %v over %d observed queries", recall, seen)
	}
	var empty tally
	if empty.recall() != 0 {
		t.Fatal("empty tally recall not 0")
	}
}

func TestStrategyString(t *testing.T) {
	if s := (Strategy{F: 6, S: 3}).String(); s != "(6 choose 3)" {
		t.Fatalf("choose-s string = %q", s)
	}
	if s := (Strategy{Fragments: 100, R: 10, Offset: 2}).String(); !strings.Contains(s, "sliding") {
		t.Fatalf("sliding string = %q", s)
	}
	if _, err := (Strategy{}).assign(nil); err == nil {
		t.Fatal("empty strategy accepted")
	}
}

func TestCostExperiment(t *testing.T) {
	tb := smallTestbed(t, Fig3Config{
		CorpusDocs: 2000,
		VocabSize:  1500,
		Strategy:   Strategy{Fragments: 20, R: 4, Offset: 2},
		Queries:    3,
		K:          20,
		Seed:       9,
	})
	res, err := tb.cost([]SeriesSpec{
		{Name: "CORI", Method: minerva.MethodCORI, Kind: synopsis.KindMIPs, Bits: 1024},
		{Name: "IQN MIPs 64", Method: minerva.MethodIQN, Kind: synopsis.KindMIPs, Bits: 2048},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.PublishBytes <= 0 || p.QueryBytes <= 0 || p.QueryRPCs <= 0 {
			t.Fatalf("%s: degenerate costs %+v", p.Series, p)
		}
		if p.Recall <= 0 || p.Recall > 1 {
			t.Fatalf("%s: recall %v", p.Series, p.Recall)
		}
	}
	// The 2048-bit deployment publishes more bytes than the 1024-bit one.
	if points[1].PublishBytes <= points[0].PublishBytes {
		t.Fatalf("publish bytes: %d (2048b) <= %d (1024b)", points[1].PublishBytes, points[0].PublishBytes)
	}
	// And buys more recall at the same peer budget.
	if points[1].Recall <= points[0].Recall {
		t.Fatalf("IQN recall %v not above CORI %v", points[1].Recall, points[0].Recall)
	}
	table := res.Table()
	if !strings.Contains(table, "at 3 queried peers") || !strings.Contains(table, "IQN MIPs 64") || !strings.Contains(table, "recall") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestChurnExperiment(t *testing.T) {
	res, err := smallTestbed(t, Fig3Config{
		CorpusDocs: 2000,
		VocabSize:  1500,
		Strategy:   Strategy{Fragments: 20, R: 4, Offset: 2},
		Queries:    3,
		K:          20,
		Seed:       5,
	}).churnKill()
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed == 0 {
		t.Fatal("no peers killed")
	}
	if res.Before <= 0 {
		t.Fatalf("before recall %v", res.Before)
	}
	if res.Pruned == 0 {
		t.Fatal("maintenance pruned nothing")
	}
	// Healing must recover at least to the degraded level; usually above.
	if res.Healed < res.Degraded-0.05 {
		t.Fatalf("healed recall %v below degraded %v", res.Healed, res.Degraded)
	}
	t.Logf("churn: before %.3f, degraded %.3f, healed %.3f (pruned %d posts)",
		res.Before, res.Degraded, res.Healed, res.Pruned)
}

func TestChurnSweep(t *testing.T) {
	cells, err := churnSweep([]int{12}, []float64{0.15}, 4, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Leaves == 0 || c.Joins == 0 {
		t.Fatalf("sweep cell fired no churn: %+v", c)
	}
	if c.LostPosts != 0 {
		t.Errorf("%d posts lost under graceful sweep churn, want 0", c.LostPosts)
	}
	if c.HandoffBytes == 0 {
		t.Errorf("no handoff bytes recorded despite %d leaves", c.Leaves)
	}
	if c.StaticRecall <= 0 {
		t.Errorf("static twin recall %v, want > 0", c.StaticRecall)
	}
	table := (&ChurnResult{Kill: &ChurnKill{}, Sweep: cells}).Table()
	if !strings.Contains(table, "static") || !strings.Contains(table, "lost") {
		t.Fatalf("table:\n%s", table)
	}
	t.Logf("sweep cell: recall %.3f vs static %.3f, lag %d, %d handoff bytes",
		c.Recall, c.StaticRecall, c.ConvergenceLag, c.HandoffBytes)
}

func TestLoadExperiment(t *testing.T) {
	res, err := smallTestbed(t, Fig3Config{
		CorpusDocs: 2500,
		VocabSize:  1800,
		Strategy:   Strategy{Fragments: 30, R: 6, Offset: 2}, // 15 peers
		Queries:    20,
		K:          30,
		Seed:       3,
	}).load(loadSeries, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	byName := map[string]LoadPoint{}
	for _, p := range points {
		if p.Total == 0 || p.Max == 0 {
			t.Fatalf("%s: no load recorded: %+v", p.Series, p)
		}
		if p.Imbalance < 1 {
			t.Fatalf("%s: imbalance %v below 1", p.Series, p.Imbalance)
		}
		byName[p.Series] = p
	}
	cori, iqn := byName["CORI"], byName["IQN MIPs 64"]
	// The paper's load argument: IQN spreads queries across complementary
	// peers where CORI concentrates them on the quality leaders.
	if iqn.Imbalance >= cori.Imbalance {
		t.Fatalf("IQN imbalance %v not below CORI %v", iqn.Imbalance, cori.Imbalance)
	}
	t.Logf("load: CORI imbalance %.2f recall %.3f; IQN imbalance %.2f recall %.3f",
		cori.Imbalance, cori.Recall, iqn.Imbalance, iqn.Recall)
	table := res.Table()
	if !strings.Contains(table, "imbalance") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestSVGRendering(t *testing.T) {
	series := []Series{
		{Name: "A & B", Points: []Point{{1, 0.2}, {5, 0.9}, {10, 0.95}}},
		{Name: "C", Points: []Point{{1, 0.1}, {10, 0.4}}},
	}
	svg := SVG(series, SVGOptions{Title: "recall <test>", XLabel: "peers", YLabel: "recall", YMax: 1})
	for _, want := range []string{"<svg", "</svg>", "polyline", "A &amp; B", "recall &lt;test&gt;", "peers"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q:\n%s", want, svg[:200])
		}
	}
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Fatal("svg contains non-finite coordinates")
	}
	// Degenerate inputs still render.
	if out := SVG(nil, SVGOptions{}); !strings.Contains(out, "</svg>") {
		t.Fatal("empty series did not render")
	}
	if out := SVG([]Series{{Name: "one", Points: []Point{{3, 7}}}}, SVGOptions{}); !strings.Contains(out, "circle") {
		t.Fatal("single point did not render")
	}
}

func TestTrimNum(t *testing.T) {
	for in, want := range map[float64]string{1000: "1k", 60000: "60k", 0.333: "0.333", 5: "5"} {
		if got := trimNum(in); got != want {
			t.Errorf("trimNum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestOverloadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("overload experiment burns real wall time on injected delays")
	}
	res, err := smallTestbed(t, Fig3Config{
		CorpusDocs: 1500,
		VocabSize:  300,
		Strategy:   Strategy{Fragments: 20, R: 4, Offset: 2}, // 10 peers
		Queries:    20,
		K:          10,
		Seed:       42,
	}).overload([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) != 2 || points[0].Mode != "bare" || points[1].Mode != "hardened" {
		t.Fatalf("want [bare hardened], got %+v", points)
	}
	bare, hardened := points[0], points[1]
	// The bare tail absorbs the full injected delay; the hardened tail
	// is clipped by the deadline budget.
	slowMs := float64(overloadSlowDelay) / float64(time.Millisecond)
	if bare.P99Ms < slowMs {
		t.Fatalf("bare p99 %vms never felt the %vms straggler", bare.P99Ms, slowMs)
	}
	if hardened.P99Ms >= bare.P99Ms {
		t.Fatalf("hardening did not improve the tail: hardened p99 %vms vs bare p99 %vms", hardened.P99Ms, bare.P99Ms)
	}
	// Degradation must be loud: the hardened run names what it lost.
	if hardened.Reported == 0 {
		t.Fatal("hardened run reported no per-peer errors despite stragglers")
	}
	if hardened.Recall <= 0 {
		t.Fatal("hardened run lost all recall")
	}
	table := res.Table()
	for _, want := range []string{"mode", "bare", "hardened", "p99", "budget-expired"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
