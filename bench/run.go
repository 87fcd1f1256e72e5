package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRounds is how many times a run sets the network up; setup_s is the
// median, so one slow round does not move it.
const setupRounds = 3

// minPasses is the least number of timed passes: every timing metric is
// the median of its per-pass values.
const minPasses = 3

// metricValue is one reported metric. Min and Max are the spread of the
// values the median was taken over (passes, or set-ups); Samples is how
// many there were, and N the sample count behind a percentile.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
	N       int     `json:"n,omitempty"`
}

// report is the full outcome of one run of one workload.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Passes    int                    `json:"passes"`
	Clients   int                    `json:"clients"`
	Spec      workload               `json:"spec"`
	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"traceFile,omitempty"`
	// Stages is the probe ledger of a traced run: per probed search, the
	// microseconds each stage took and the share of that it spent outside
	// its own RPCs.
	Stages map[string]stageTime `json:"stages,omitempty"`
}

type stageTime struct {
	US     float64 `json:"us"`
	SelfUS float64 `json:"selfUs"`
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, values ...float64) {
	r.setN(name, 0, values...)
}

// setN records the median of values under name, with its spread.
func (r *report) setN(name string, n int, values ...float64) {
	def := findMetric(name)
	if def == nil {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	mv := metricValue{Unit: def.Unit, Samples: len(values), N: n}
	if len(values) > 0 {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		mv.Min, mv.Max, mv.Value = s[0], s[len(s)-1], median(s)
	}
	r.Metrics[name] = mv
}

// median of an ascending, non-empty slice.
func median(sorted []float64) float64 {
	mid := len(sorted) / 2
	if len(sorted)%2 == 0 {
		return (sorted[mid-1] + sorted[mid]) / 2
	}
	return sorted[mid]
}

// finish fails the run if any search failed: these workloads inject no
// faults.
func (r *report) finish() {
	if r.Failed > 0 {
		r.problem("%d of %d searches failed on a fault-free workload", r.Failed, r.Attempted)
	}
}

// percentile returns the q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// passStats is what one pass over the draw sequence measured.
type passStats struct {
	ops      int
	searchS  float64 // wall time spent in the search phases
	p50, p95 float64 // ms
	calls    int64
	bytes    int64
	peers    int64
	reroutes int64
	errors   int64 // per-peer errors reported by searches that returned
	failed   int64 // searches with an error or a non-empty Errors
	mallocs  uint64
	allocB   uint64
	publishS float64
	posts    int
}

// runner drives one deployed network through passes.
type runner struct {
	n       *network
	in      *inputs
	clients int
	lat     [][]float64 // per client, reused by every pass
	all     []float64   // every latency of every pass, for the p99
	epoch   int64       // last publish epoch used
}

func newRunner(n *network, in *inputs) *runner {
	clients := n.w.Clients
	if cpus := runtime.NumCPU(); clients > cpus {
		clients = cpus
	}
	r := &runner{n: n, in: in, clients: clients, lat: make([][]float64, clients)}
	for c := range r.lat {
		r.lat[c] = make([]float64, 0, n.w.passOps()/clients+1)
	}
	return r
}

// draws returns client c's share of the pass's draw sequence.
func (r *runner) draws(c int) []int {
	n := len(r.in.draws)
	return r.in.draws[c*n/r.clients : (c+1)*n/r.clients]
}

// searchPhase runs the given draws, one slice per client, each client on
// its own goroutine (inline when there is one), and adds what it measured
// to st.
func (r *runner) searchPhase(st *passStats, draws [][]int) {
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	calls0, bytes0 := r.n.rec.counters()
	type tally struct{ peers, reroutes, errors, failed int64 }
	tallies := make([]tally, len(draws))
	client := func(c int) {
		t := &tallies[c]
		for _, d := range draws[c] {
			start := time.Now()
			res, err := r.n.search(c, r.in.pool[d], false)
			r.lat[c] = append(r.lat[c], float64(time.Since(start).Nanoseconds())/1e6)
			if err != nil {
				t.failed++
				continue
			}
			t.peers += int64(resultPeers(res))
			t.reroutes += int64(resultReroutes(res))
			if e := resultErrors(res); e > 0 {
				t.errors += int64(e)
				t.failed++
			}
		}
	}
	start := time.Now()
	if len(draws) == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := range draws {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c)
			}(c)
		}
		wg.Wait()
	}
	st.searchS += time.Since(start).Seconds()
	calls1, bytes1 := r.n.rec.counters()
	runtime.ReadMemStats(&mem1)
	st.calls += calls1 - calls0
	st.bytes += bytes1 - bytes0
	st.mallocs += mem1.Mallocs - mem0.Mallocs
	st.allocB += mem1.TotalAlloc - mem0.TotalAlloc
	for c, t := range tallies {
		st.ops += len(draws[c])
		st.peers += t.peers
		st.reroutes += t.reroutes
		st.errors += t.errors
		st.failed += t.failed
	}
}

// pass replays the draw sequence once. On a republish workload it is two
// publish epochs over the same draws: every peer republishes, each publish
// followed by its share of the searches from peer 0, and each epoch ends
// with a prune (see workload.RepublishSearches for why two).
func (r *runner) pass() (passStats, error) {
	var st passStats
	for c := range r.lat {
		r.lat[c] = r.lat[c][:0]
	}
	if per := r.n.w.RepublishSearches; per > 0 {
		for e := 0; e < republishEpochs; e++ {
			r.epoch++
			for peer := range r.n.posts {
				start := time.Now()
				if err := r.n.publish(peer, r.epoch); err != nil {
					return st, fmt.Errorf("publish peer %d epoch %d: %w", peer, r.epoch, err)
				}
				st.publishS += time.Since(start).Seconds()
				st.posts += r.n.posts[peer]
				r.searchPhase(&st, [][]int{r.in.draws[peer*per : (peer+1)*per]})
			}
			r.n.prune(r.epoch)
		}
	} else {
		draws := make([][]int, r.clients)
		for c := range draws {
			draws[c] = r.draws(c)
		}
		r.searchPhase(&st, draws)
	}
	var lat []float64
	for _, l := range r.lat {
		lat = append(lat, l...)
	}
	r.all = append(r.all, lat...)
	sort.Float64s(lat)
	st.p50, st.p95 = percentile(lat, 0.50), percentile(lat, 0.95)
	return st, nil
}

// passes runs a warm-up pass and then timed passes for about the given
// number of seconds, at least minPasses of them.
func (r *runner) passes(seconds float64, atLeast int) ([]passStats, error) {
	if _, err := r.pass(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.all = r.all[:0]
	runtime.GC()
	var out []passStats
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		if n := len(out); n >= atLeast && elapsed+elapsed/float64(n)/2 > seconds {
			return out, nil
		}
		st, err := r.pass()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

// openWindows is how many equal windows the open-loop phase is cut into;
// open_p95_ms is the median of the windows' 95th percentiles.
const openWindows = 3

// openResult is what the open-loop phase measured.
type openResult struct {
	ops     int
	failed  int
	p95     []float64 // ms from each scheduled send, one per window
	lateP95 float64   // ms, how late the generator sent
	backlog bool      // still growing when the schedule ended
}

// openLoop sends searches on a fixed schedule whether or not earlier ones
// have returned, alternating between the clients' initiators, and times
// each from the instant it was due.
func (r *runner) openLoop(rate, seconds float64) openResult {
	ops := int(rate * seconds)
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, ops)
	late := make([]float64, ops)
	bad := make([]bool, ops)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := 0; i < ops; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			q := r.in.pool[r.in.draws[i%len(r.in.draws)]]
			res, err := r.n.search(i%r.clients, q, false)
			lat[i] = float64(time.Since(due).Nanoseconds()) / 1e6
			bad[i] = err != nil || resultErrors(res) > 0
			inflight.Add(-1)
		}(i, due)
	}
	// More than a quarter second of arrivals still unanswered when the
	// generator stops means the system is not keeping up with the rate.
	backlog := float64(inflight.Load()) > rate/4
	wg.Wait()
	out := openResult{ops: ops, backlog: backlog}
	for _, b := range bad {
		if b {
			out.failed++
		}
	}
	for w := 0; w < openWindows; w++ {
		window := lat[w*ops/openWindows : (w+1)*ops/openWindows]
		sort.Float64s(window)
		out.p95 = append(out.p95, percentile(window, 0.95))
	}
	sort.Float64s(late)
	out.lateP95 = percentile(late, 0.95)
	return out
}

// openPhase runs the workload's open loop and books its searches, its
// failures and a growing backlog in the report.
func (r *runner) openPhase(rep *report) openResult {
	open := r.openLoop(r.n.w.OpenRate, r.n.w.OpenSeconds)
	rep.Attempted += open.ops
	rep.Failed += open.failed
	if open.backlog {
		rep.problem("open loop: backlog still growing at %.0f searches/s", r.n.w.OpenRate)
	}
	return open
}

// verify is the untimed verification pass: every pool query is searched
// once more and its merged result checked — score-descending, no document
// twice, at most K long, and on a streaming workload equal entry for
// entry to the pull path's. It returns the mean recall over the pool.
func (r *runner) verify(rep *report) float64 {
	k := r.n.w.K
	var recall float64
	for qi, q := range r.in.pool {
		res, err := r.n.search(0, q, false)
		if err != nil {
			rep.problem("verify query %d: %v", qi, err)
			continue
		}
		if n := resultErrors(res); n > 0 {
			rep.problem("verify query %d: %d peers failed", qi, n)
		}
		if resultLen(res) > k {
			rep.problem("verify query %d: %d results, K is %d", qi, resultLen(res), k)
		}
		seen := make(map[uint64]struct{}, resultLen(res))
		var prev float64
		for i := 0; i < resultLen(res); i++ {
			doc, score := resultAt(res, i)
			if _, dup := seen[doc]; dup {
				rep.problem("verify query %d: document %d twice", qi, doc)
			}
			seen[doc] = struct{}{}
			if i > 0 && score > prev {
				rep.problem("verify query %d: score rises at rank %d", qi, i)
			}
			prev = score
		}
		recall += r.in.recall(q, res, k)
		if !r.n.w.Streaming {
			continue
		}
		pull, err := r.n.search(0, q, true)
		if err != nil {
			rep.problem("verify query %d (pull): %v", qi, err)
			continue
		}
		same := resultLen(pull) == resultLen(res)
		for i := 0; same && i < resultLen(res); i++ {
			d1, s1 := resultAt(res, i)
			d2, s2 := resultAt(pull, i)
			same = d1 == d2 && s1 == s2
		}
		if !same {
			rep.problem("verify query %d: streamed top-%d differs from the pull top-%d", qi, k, k)
		}
	}
	return recall / float64(len(r.in.pool))
}

// checkCounts fails the run unless every count repeated exactly in every
// pass: the passes replay the same draws against the same network state.
func checkCounts(rep *report, passes []passStats) {
	for i, p := range passes[1:] {
		f := passes[0]
		if p.ops != f.ops || p.calls != f.calls || p.bytes != f.bytes || p.peers != f.peers ||
			p.reroutes != f.reroutes || p.errors != f.errors || p.failed != f.failed || p.posts != f.posts {
			rep.problem("pass %d counts differ from pass 0: ops %d/%d rpcs %d/%d bytes %d/%d peers %d/%d failed %d/%d",
				i+1, p.ops, f.ops, p.calls, f.calls, p.bytes, f.bytes, p.peers, f.peers, p.failed, f.failed)
		}
	}
}

func newReport(w workload, seed int64, seconds float64, trace bool) *report {
	return &report{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Spec: w, Metrics: map[string]metricValue{},
	}
}

// runTimed is a run with tracing off: three set-ups, a warm-up pass, timed
// passes for the given seconds, the open-loop phase where the workload
// has one, and the verification pass. It reports the end-to-end metrics.
func runTimed(w workload, seed int64, seconds float64, scratch string) (*report, error) {
	rep := newReport(w, seed, seconds, false)
	in := generateInputs(w, seed)
	var n *network
	var setups []setupStats
	for i := 0; i < setupRounds; i++ {
		if n != nil {
			n.close()
		}
		runtime.GC()
		var err error
		if n, err = buildNetwork(w, in, false, scratch); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, n.setup)
	}
	defer n.close()
	r := newRunner(n, in)
	rep.Clients = r.clients

	closed := seconds
	if w.OpenRate > 0 {
		closed -= w.OpenSeconds
	}
	passes, err := r.passes(closed, minPasses)
	if err != nil {
		return nil, err
	}
	rep.Passes = len(passes)
	checkCounts(rep, passes)

	var p50, p95, qps, allocKB, allocs, pubRate []float64
	for _, p := range passes {
		ops := float64(p.ops)
		p50 = append(p50, p.p50)
		p95 = append(p95, p.p95)
		qps = append(qps, ops/p.searchS)
		allocKB = append(allocKB, float64(p.allocB)/1024/ops)
		allocs = append(allocs, float64(p.mallocs)/ops)
		if p.publishS > 0 {
			pubRate = append(pubRate, float64(p.posts)/p.publishS)
		}
		rep.Attempted += p.ops
		rep.Failed += int(p.failed)
	}
	var setupS, buildRate []float64
	for _, s := range setups {
		setupS = append(setupS, s.SetupS)
		buildRate = append(buildRate, float64(s.Docs)/s.IndexS)
		if w.RepublishSearches == 0 {
			pubRate = append(pubRate, float64(s.Posts)/s.PublishS)
		}
	}
	first := passes[0]
	ops := float64(first.ops)
	rep.set("setup_s", setupS...)
	rep.setN("search_p50_ms", first.ops, p50...)
	rep.setN("search_p95_ms", first.ops, p95...)
	rep.set("search_qps", qps...)
	rep.set("peers_per_search", float64(first.peers)/ops)
	rep.set("rpcs_per_search", float64(first.calls)/ops)
	rep.set("wire_kb_per_search", float64(first.bytes)/1024/ops)
	rep.set("alloc_kb_per_search", allocKB...)
	rep.set("allocs_per_search", allocs...)
	rep.set("publish_posts_per_s", pubRate...)
	rep.set("build_docs_per_s", buildRate...)

	if w.OpenRate > 0 {
		open := r.openPhase(rep)
		rep.setN("open_p95_ms", open.ops/openWindows, open.p95...)
	}
	rep.set("recall_at_k", r.verify(rep))
	rep.set("failed_search_frac", float64(rep.Failed)/float64(rep.Attempted))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.finish()
	return rep, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
