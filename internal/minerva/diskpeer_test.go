package minerva

import (
	"path/filepath"
	"reflect"
	"testing"

	"iqn/internal/buildix"
	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// diskBuild runs the out-of-core pipeline over a document set and
// returns the index path.
func diskBuild(t *testing.T, docs []dataset.Document, cfg Config, withSyn bool) string {
	t.Helper()
	dir := t.TempDir()
	bcfg := buildix.Config{Dir: dir, Scoring: cfg.Scoring, MemBudget: 1 << 20}
	if withSyn {
		bcfg.Synopsis = &synopsis.Config{Kind: cfg.kind(), Bits: cfg.bits(), Seed: cfg.SynopsisSeed}
	}
	i := 0
	res, err := buildix.Build(bcfg, func() (buildix.Doc, bool) {
		if i >= len(docs) {
			return buildix.Doc{}, false
		}
		d := docs[i]
		i++
		return buildix.Doc{ID: d.ID, Terms: d.Terms}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.IndexPath
}

// standalonePeer creates a single-peer ring on its own transport.
func standalonePeer(t *testing.T, cfg Config) *Peer {
	t.Helper()
	p, err := NewPeer("solo", transport.NewInMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.CreateRing()
	t.Cleanup(p.Close)
	return p
}

// TestDiskBackedPeerParity mounts a buildix-built index into one peer
// and indexes the same documents in memory on another: local search
// results and directory posts must be entry-for-entry identical.
func TestDiskBackedPeerParity(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 500, Seed: 23})
	cfg := Config{Scoring: ir.ScoringBM25, SynopsisSeed: 7}

	memPeer := standalonePeer(t, cfg)
	memPeer.IndexCollection(corpus.Docs)

	diskPeer := standalonePeer(t, cfg)
	if err := diskPeer.LoadDiskIndex(diskBuild(t, corpus.Docs, cfg, true)); err != nil {
		t.Fatal(err)
	}

	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 5, Seed: 23})
	for _, q := range queries {
		want := memPeer.LocalSearch(q.Terms, 20, false)
		have := diskPeer.LocalSearch(q.Terms, 20, false)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("query %v differs between memory and disk peers", q.Terms)
		}
	}

	memPosts, err := memPeer.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	diskPosts, err := diskPeer.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(memPosts) != len(diskPosts) {
		t.Fatalf("post counts differ: %d vs %d", len(memPosts), len(diskPosts))
	}
	for i := range memPosts {
		if !reflect.DeepEqual(memPosts[i], diskPosts[i]) {
			t.Fatalf("post %d (%q) differs between memory and disk peers",
				i, memPosts[i].Term)
		}
	}
}

// TestDiskPeerUsesPrebuiltSynopses proves the publish path consumes the
// side file rather than recomputing: a side file with sentinel bytes
// (matching scheme) must surface verbatim in the posts.
func TestDiskPeerUsesPrebuiltSynopses(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 120, Seed: 2})
	cfg := Config{SynopsisSeed: 9}
	path := diskBuild(t, corpus.Docs, cfg, false) // no side file yet

	// Hand-write a side file whose scheme matches the peer config but
	// whose bytes are sentinels.
	d, err := ir.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	terms := d.Terms()
	d.Close()
	sw, err := ir.NewSynopsisWriter(path+".syn", int(cfg.kind()), cfg.bits(), cfg.SynopsisSeed)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, term := range terms {
		if err := sw.AddTerm(term, sentinel); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	p := standalonePeer(t, cfg)
	if err := p.LoadDiskIndex(path); err != nil {
		t.Fatal(err)
	}
	posts, err := p.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range posts {
		if !reflect.DeepEqual(post.Synopsis, sentinel) {
			t.Fatalf("post for %q did not use the prebuilt synopsis", post.Term)
		}
	}

	// A scheme mismatch (different seed) must fall back to recomputing.
	p2 := standalonePeer(t, Config{SynopsisSeed: 10})
	if err := p2.LoadDiskIndex(path); err != nil {
		t.Fatal(err)
	}
	posts2, err := p2.BuildPosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range posts2 {
		if reflect.DeepEqual(post.Synopsis, sentinel) {
			t.Fatalf("post for %q used a mismatched-scheme synopsis", post.Term)
		}
	}
}

// TestDiskPeerInNetwork swaps one network peer's index for its
// disk-built twin mid-flight: distributed search results are unchanged.
func TestDiskPeerInNetwork(t *testing.T) {
	cfg := Config{SynopsisSeed: 7}
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 2000, VocabSize: 1500, Seed: 11})
	cols := dataset.AssignSlidingWindow(corpus, 20, 4, 2)
	net, err := BuildNetwork(transport.NewInMem(), corpus, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 11})

	initiator := net.Peers[0]
	before := make([][]ir.Result, len(queries))
	for i, q := range queries {
		res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res.Results
	}

	// Rebuild peer 3's collection out of core and mount it.
	target := net.Peers[3]
	path := diskBuild(t, cols[3].Docs, cfg, true)
	if err := target.LoadDiskIndex(path); err != nil {
		t.Fatal(err)
	}
	if err := target.PublishPosts(); err != nil {
		t.Fatal(err)
	}

	for i, q := range queries {
		res, err := initiator.Search(q.Terms, SearchOptions{K: 20, MaxPeers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Results, before[i]) {
			t.Fatalf("query %v results changed after disk swap", q.Terms)
		}
	}
}

// TestDiskPeerSaveLoadRoundTrip persists a disk-backed peer's index and
// restores it through LoadDiskIndex.
func TestDiskPeerSaveLoadRoundTrip(t *testing.T) {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 150, Seed: 4})
	cfg := Config{SynopsisSeed: 3}
	p := standalonePeer(t, cfg)
	if err := p.LoadDiskIndex(diskBuild(t, corpus.Docs, cfg, true)); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "saved.iqdx")
	if err := p.SaveIndex(saved); err != nil {
		t.Fatal(err)
	}

	p2 := standalonePeer(t, cfg)
	if err := p2.LoadDiskIndex(saved); err != nil {
		t.Fatal(err)
	}
	// The restored peer is disk-backed and answers identically.
	if _, ok := p2.Index().(*ir.DiskIndex); !ok {
		t.Fatalf("LoadDiskIndex mounted %T, want *ir.DiskIndex", p2.Index())
	}
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 3, Seed: 4})
	for _, q := range queries {
		if !reflect.DeepEqual(p.LocalSearch(q.Terms, 10, false), p2.LocalSearch(q.Terms, 10, false)) {
			t.Fatalf("query %v differs after save/load", q.Terms)
		}
	}
}
