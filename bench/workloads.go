package main

// workload is one named benchmark configuration: the network it builds,
// the search options it drives, and the size of one pass. Sizes are fixed
// here so a result file is comparable with any other taken at the same
// seed; only the number of passes grows with -seconds.
type workload struct {
	Name string `json:"name"`
	// Why records what the workload stresses and what it bypasses; the
	// same line is its "why" in BENCHMARK.json.
	Why string `json:"why"`

	// Transport is "inmem" or "tcp" (loopback, wire v2).
	Transport string `json:"transport"`
	// CorpusDocs documents are split into Fragments fragments; peer i
	// holds the Window consecutive fragments starting at i*Offset, so
	// there are Fragments/Offset peers and neighbours overlap.
	CorpusDocs int `json:"corpusDocs"`
	Fragments  int `json:"fragments"`
	Window     int `json:"window"`
	Offset     int `json:"offset"`
	// Disk builds every peer's index with the out-of-core pipeline and
	// mounts it from disk instead of indexing in memory.
	Disk bool `json:"disk,omitempty"`

	// Cache arms the directory read cache (TTL one hour, so no expiry
	// falls inside a run); Coalescing arms whole-search coalescing.
	Cache      bool `json:"cache"`
	Coalescing bool `json:"coalescing,omitempty"`
	// Streaming forwards with the incremental top-k protocol (chunk 16)
	// instead of pulling every peer's full top-K.
	Streaming bool `json:"streaming,omitempty"`
	K         int  `json:"k"`
	// ConjunctiveEvery > 0 makes every n-th pool query conjunctive.
	ConjunctiveEvery int `json:"conjunctiveEvery,omitempty"`

	// Pool is the size of the query pool the draws come from.
	Pool int `json:"pool"`
	// Clients is the number of closed-loop callers, each pinned to its
	// own initiator peer; it is capped at the machine's CPU count.
	Clients int `json:"clients"`
	// PassOps is the number of searches in one pass over the draw
	// sequence. Every pass replays the same draws.
	PassOps int `json:"passOps"`
	// RepublishSearches > 0 turns a pass into two publish epochs. In an
	// epoch every peer republishes its posts, each publish followed by
	// this many searches from peer 0, and the epoch ends with a directory
	// prune; both epochs replay the same draws.
	//
	// Two epochs, because the read cache makes counts repeat every second
	// epoch, not every epoch: a PeerList first fetched after every one of
	// its posters has republished holds only current posts, survives the
	// prune and serves the whole next epoch from cache, is pruned at that
	// epoch's end, and is fetched again in the epoch after.
	RepublishSearches int `json:"republishSearches,omitempty"`
	// OpenRate > 0 adds an open-loop phase at that many searches per
	// second for OpenSeconds, timed from each scheduled send.
	OpenRate    float64 `json:"openRate,omitempty"`
	OpenSeconds float64 `json:"openSeconds,omitempty"`
}

// Shared load shape (see README.md): queries are drawn from the pool with a
// Zipf law of exponent zipfS. The offset zipfV flattens the head so that
// the hottest query is about 2% of the draws; with the textbook offset 1
// it is 28%, and every metric then follows whichever query the seed made
// hottest (a 12% quartile spread across seeds, against 4% here).
const (
	zipfS    = 1.2
	zipfV    = 20
	maxPeers = 5
	chunkLen = 16
)

// workloads is the benchmark. Sizes are what a 2-core box runs inside the
// driver's time cap: three set-ups plus run_seconds of passes plus the
// verification pass stay under 20 s per run.
var workloads = []workload{
	{
		Name: "cold-pull",
		Why: "No cache, no coalescing, pull forwarding: every search pays chord lookup, directory fetch, " +
			"gob decode, synopsis decode and routing. Transport, directory and chord work must show here.",
		Transport: "inmem", CorpusDocs: 16000, Fragments: 128, Window: 4, Offset: 2,
		K: 20, Pool: 500, Clients: 1, PassOps: 1000,
	},
	{
		Name: "warm-stream",
		Why: "The production configuration (cache, coalescing, streaming top-k) on the same network: the cache bypasses " +
			"fetch, codec and chord, so core, ir and topk do the work. A codec change should not move it.",
		Transport: "inmem", CorpusDocs: 16000, Fragments: 128, Window: 4, Offset: 2,
		Cache: true, Coalescing: true, Streaming: true,
		K: 20, Pool: 500, Clients: 1, PassOps: 3000,
	},
	{
		Name: "tcp-serve",
		Why: "Loopback TCP with two concurrent clients, then a fixed-rate open loop: framing, syscalls and the " +
			"multiplexed serving engine dominate. The only workload with real sockets and concurrency.",
		Transport: "tcp", CorpusDocs: 10000, Fragments: 32, Window: 4, Offset: 2,
		Cache: true,
		K:     20, Pool: 500, Clients: 2, PassOps: 2000,
		OpenRate: 400, OpenSeconds: 3,
	},
	{
		Name: "republish-mix",
		Why: "Every peer republishes each epoch beside reads from peer 0, then a prune: the write side of directory, " +
			"synopsis and transport with cache invalidation. A read gain that slows publishes shows here.",
		Transport: "inmem", CorpusDocs: 16000, Fragments: 128, Window: 4, Offset: 2,
		Cache: true,
		K:     20, Pool: 500, Clients: 1, RepublishSearches: 8,
	},
	{
		Name: "disk-local",
		Why: "Eight large peers serving IQDX indexes built out of core, K=100, every 4th query conjunctive: " +
			"peer-local search over pread postings dominates, so ir and buildix do the work they barely do elsewhere.",
		Transport: "inmem", CorpusDocs: 16000, Fragments: 16, Window: 4, Offset: 2, Disk: true,
		Cache: true, Streaming: true,
		K: 100, ConjunctiveEvery: 4, Pool: 500, Clients: 1, PassOps: 1500,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w workload) peers() int { return w.Fragments / w.Offset }

// draws is the length of the draw sequence a pass replays.
func (w workload) draws() int {
	if w.RepublishSearches > 0 {
		return w.peers() * w.RepublishSearches
	}
	return w.PassOps
}

// passOps is the number of searches one pass issues.
func (w workload) passOps() int {
	if w.RepublishSearches > 0 {
		return republishEpochs * w.draws()
	}
	return w.PassOps
}

// republishEpochs is the number of publish epochs in one republish pass.
const republishEpochs = 2
