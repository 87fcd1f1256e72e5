package minerva

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"iqn/internal/core"
	"iqn/internal/cori"
	"iqn/internal/directory"
	"iqn/internal/histogram"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// assembleOracle is the map-based candidate assembly the merge in
// assembleCandidates replaced: every post is filed under peer → term,
// the peer names are sorted, and each candidate is built from its map.
// It is the reference the property test holds the merge to.
func assembleOracle(p *Peer, terms []string, lists map[string]directory.PeerList) ([]core.Candidate, error) {
	type peerInfo struct {
		posts map[string]directory.Post
	}
	peers := map[string]*peerInfo{}
	collectionFreq := map[string]int{}
	var termSpaceSum float64
	var termSpaceN int
	for term, pl := range lists {
		collectionFreq[term] = len(pl)
		for _, post := range pl {
			pi := peers[post.Peer]
			if pi == nil {
				pi = &peerInfo{posts: map[string]directory.Post{}}
				peers[post.Peer] = pi
			}
			pi.posts[term] = post
			termSpaceSum += float64(post.TermSpaceSize)
			termSpaceN++
		}
	}
	delete(peers, p.name)
	g := cori.GlobalStats{
		NumPeers:       len(peers),
		CollectionFreq: collectionFreq,
	}
	if termSpaceN > 0 {
		g.AvgTermSpaceSize = termSpaceSum / float64(termSpaceN)
	}
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	sort.Strings(names)
	cands := make([]core.Candidate, 0, len(names))
	for _, name := range names {
		pi := peers[name]
		c := core.Candidate{
			Peer:              core.PeerID(name),
			TermSynopses:      map[string]synopsis.Set{},
			TermCardinalities: map[string]float64{},
		}
		stats := cori.CollectionStats{DocFreq: map[string]int{}}
		for term, post := range pi.posts {
			stats.DocFreq[term] = post.ListLength
			stats.TermSpaceSize = post.TermSpaceSize
			c.TermCardinalities[term] = float64(post.ListLength)
			if len(post.Synopsis) > 0 {
				set, err := p.dir.DecodedSynopsis(post)
				if err != nil {
					return nil, fmt.Errorf("minerva: synopsis of %s/%s: %w", name, term, err)
				}
				c.TermSynopses[term] = set
			}
			if len(post.Histogram) > 0 {
				h, err := decodeHistogram(post.Histogram)
				if err != nil {
					return nil, fmt.Errorf("minerva: histogram of %s/%s: %w", name, term, err)
				}
				if c.TermHistograms == nil {
					c.TermHistograms = map[string]*histogram.Histogram{}
				}
				c.TermHistograms[term] = h
			}
		}
		c.Quality = cori.Score(terms, stats, g)
		cands = append(cands, c)
	}
	return cands, nil
}

// assembleCandidates assembles into a fresh working set, so the
// candidates it returns are the caller's to keep.
func (p *Peer) assembleCandidates(terms []string, lists map[string]directory.PeerList) ([]core.Candidate, error) {
	return p.assemble(new(searchScratch), terms, lists)
}

// assemblyFixture is one peer on a one-node ring whose directory holds a
// seeded set of posts, plus the PeerLists fetched back through it — so
// with the read cache armed the lists and their decoded synopses are
// cache entries, exactly as on the warm search path.
type assemblyFixture struct {
	peer  *Peer
	terms []string
	lists map[string]directory.PeerList
}

// newAssemblyFixture publishes posts for nTerms terms from up to nPeers
// peers (the fixture's own peer among them when withSelf), each post
// carrying a synopsis with probability synProb and histogram cells with
// probability histProb.
func newAssemblyFixture(t testing.TB, rng *rand.Rand, cacheTTL time.Duration, nPeers, nTerms int, withSelf bool, synProb, histProb float64) *assemblyFixture {
	t.Helper()
	p, err := NewPeer("self", transport.NewInMem(), Config{SynopsisSeed: 7, DirectoryCacheTTL: cacheTTL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.CreateRing()
	scfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 256, Seed: 7}
	marshal := func(n int) []byte {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(rng.Intn(5000))
		}
		b, err := scfg.FromIDs(ids).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	names := make([]string, 0, nPeers+1)
	for i := 0; i < nPeers; i++ {
		names = append(names, fmt.Sprintf("peer-%03d", i))
	}
	if withSelf {
		names = append(names, p.Name())
	}
	space := map[string]int{}
	for _, name := range names {
		space[name] = 100 + rng.Intn(5000)
	}
	f := &assemblyFixture{peer: p}
	var posts []directory.Post
	for ti := 0; ti < nTerms; ti++ {
		term := fmt.Sprintf("term%d", ti)
		f.terms = append(f.terms, term)
		for _, name := range names {
			if rng.Float64() < 0.3 {
				continue
			}
			df := 1 + rng.Intn(400)
			post := directory.Post{
				Peer: name, PeerAddr: name, Term: term,
				ListLength: df, MaxScore: rng.Float64() * 10, AvgScore: rng.Float64(),
				TermSpaceSize: space[name], NumDocs: 1000,
			}
			if rng.Float64() < synProb {
				post.Synopsis = marshal(df)
			}
			if rng.Float64() < histProb {
				post.Histogram = []directory.HistCell{
					{Lo: 0, Hi: 1, Count: df / 2, Synopsis: marshal(df / 2)},
					{Lo: 1, Hi: 2, Count: df - df/2},
				}
			}
			posts = append(posts, post)
		}
	}
	if len(posts) > 0 {
		if _, err := p.dir.Publish(posts); err != nil {
			t.Fatal(err)
		}
	}
	f.lists, _, err = p.dir.FetchAllReportOpts(f.terms, 0, directory.FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAssembleMatchesOracle holds the merge to the map-based oracle on
// seeded directories: the same candidates in the same order, with the
// same Quality bits and the same synopsis, cardinality and histogram
// maps — with the self post present and absent, duplicate query terms,
// a query term with an empty list, posts without a synopsis, histogram
// cells, and a list that arrives unsorted with a duplicate peer. It
// runs with the directory read cache armed and off.
func TestAssembleMatchesOracle(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("cache=%v", ttl > 0), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2006))
			for iter := 0; iter < 40; iter++ {
				f := newAssemblyFixture(t, rng, ttl, 1+rng.Intn(20), 1+rng.Intn(4), iter%2 == 0, 0.7, 0.3)
				terms := append([]string(nil), f.terms...)
				lists := make(map[string]directory.PeerList, len(f.lists)+1)
				for term, pl := range f.lists {
					lists[term] = pl
				}
				if iter%3 == 0 {
					// A repeated query term.
					terms = append(terms, terms[0])
				}
				if iter%4 == 1 {
					// A query term nobody posted for.
					terms = append(terms, "absent")
					lists["absent"] = directory.PeerList{}
				}
				if pl := lists[f.terms[0]]; iter%5 == 2 && len(pl) > 1 {
					// A list out of peer order whose first post reappears
					// later with a different df: the later one must win.
					bad := append(directory.PeerList(nil), pl...)
					dup := bad[0]
					dup.ListLength += 17
					bad = append(bad, dup)
					rng.Shuffle(len(bad)-1, func(i, j int) { bad[i], bad[j] = bad[j], bad[i] })
					lists[f.terms[0]] = bad
				}
				want, err := assembleOracle(f.peer, terms, lists)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.peer.assembleCandidates(terms, lists)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("iter %d: %d candidates, oracle %d", iter, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Peer != w.Peer {
						t.Fatalf("iter %d cand %d: peer %s, oracle %s", iter, i, g.Peer, w.Peer)
					}
					if g.Peer == core.PeerID(f.peer.Name()) {
						t.Fatalf("iter %d: the initiator is a candidate", iter)
					}
					if math.Float64bits(g.Quality) != math.Float64bits(w.Quality) {
						t.Fatalf("iter %d %s: quality %v, oracle %v", iter, g.Peer, g.Quality, w.Quality)
					}
					if !reflect.DeepEqual(g.TermSynopses, w.TermSynopses) ||
						!reflect.DeepEqual(g.TermCardinalities, w.TermCardinalities) ||
						!reflect.DeepEqual(g.TermHistograms, w.TermHistograms) {
						t.Fatalf("iter %d %s: term maps differ from the oracle", iter, g.Peer)
					}
				}
			}
		})
	}
}

// TestAssembleReusedScratchMatchesOracle holds assembly into one reused
// working set to the oracle across directories of every size: slots that
// held a candidate (and its histograms) in an earlier assembly are
// cleared and refilled, slots past the old capacity get new maps, and no
// term, histogram or seed bound leaks from one assembly into the next.
func TestAssembleReusedScratchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	s := new(searchScratch)
	for iter := 0; iter < 40; iter++ {
		f := newAssemblyFixture(t, rng, time.Hour, 1+rng.Intn(30), 1+rng.Intn(4), iter%2 == 0, 0.7, 0.5*float64(iter%3))
		// Query order is not name order, and a term may repeat: the
		// seed bound sums over the distinct terms in query order.
		terms := append([]string(nil), f.terms...)
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		if iter%3 == 0 {
			terms = append(terms, terms[0])
		}
		want, err := assembleOracle(f.peer, terms, f.lists)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.peer.assemble(s, terms, f.lists)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(s.bounds) != len(got) {
			t.Fatalf("iter %d: %d candidates and %d bounds, oracle %d candidates", iter, len(got), len(s.bounds), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Peer != w.Peer || math.Float64bits(g.Quality) != math.Float64bits(w.Quality) ||
				!reflect.DeepEqual(g.TermSynopses, w.TermSynopses) ||
				!reflect.DeepEqual(g.TermCardinalities, w.TermCardinalities) ||
				!reflect.DeepEqual(g.TermHistograms, w.TermHistograms) {
				t.Fatalf("iter %d cand %d (%s): differs from the oracle", iter, i, w.Peer)
			}
			var bound float64
			for i, term := range terms {
				if slices.Index(terms, term) < i {
					continue
				}
				for _, post := range f.lists[term] {
					if post.Peer == string(w.Peer) {
						bound += post.MaxScore
					}
				}
			}
			if math.Float64bits(s.bounds[i]) != math.Float64bits(bound) {
				t.Fatalf("iter %d %s: seed bound %v, want %v", iter, w.Peer, s.bounds[i], bound)
			}
		}
	}
}

// TestAssembleAllocsPerCandidate guards the warm path: on cached lists
// whose synopses are already decoded, assembly into a reused working set
// refills the candidates' cleared term maps and allocates nothing per
// candidate and nothing per post — at most a few allocations in all.
func TestAssembleAllocsPerCandidate(t *testing.T) {
	f := newAssemblyFixture(t, rand.New(rand.NewSource(5)), time.Hour, 64, 3, true, 1, 0)
	s := new(searchScratch)
	cands, err := f.peer.assemble(s, f.terms, f.lists) // decodes once per epoch
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.peer.assemble(s, f.terms, f.lists); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 4
	t.Logf("%d candidates: %.0f allocations (limit %d)", len(cands), allocs, limit)
	if allocs > limit {
		t.Fatalf("assembling %d candidates made %.0f allocations, limit %d", len(cands), allocs, limit)
	}
}

// BenchmarkAssembleCandidates times warm-path assembly into a reused
// working set: 64 peers over three cached terms, every synopsis already
// decoded.
func BenchmarkAssembleCandidates(b *testing.B) {
	f := newAssemblyFixture(b, rand.New(rand.NewSource(5)), time.Hour, 64, 3, true, 1, 0)
	s := new(searchScratch)
	if _, err := f.peer.assemble(s, f.terms, f.lists); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.peer.assemble(s, f.terms, f.lists); err != nil {
			b.Fatal(err)
		}
	}
}
