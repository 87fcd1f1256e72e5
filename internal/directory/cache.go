package directory

import (
	"math"
	"sync"
	"time"

	"iqn/internal/synopsis"
	"iqn/internal/telemetry"
)

// FetchOptions tunes one read through the client (FetchAllReportOpts).
type FetchOptions struct {
	// Fresh bypasses the read cache for this call: every term is re-read
	// from the directory and the cache is refreshed with the results.
	// No-op when the cache is disabled.
	Fresh bool
}

// readCache is the client-side directory read cache: per-term PeerLists
// with a TTL bound, epoch validation against the client's witnessed
// prune floor, negative entries for missing terms, singleflight
// coalescing of concurrent fetches, and a per-entry decoded-synopsis
// cache. Consistency model (DESIGN.md §10): an entry is served for at
// most ttl after it was read; local writes (Publish, PruneBelow,
// RepairTerm, and Service mutations via SetInvalidation) evict or
// refresh entries immediately, so only changes the client never
// witnesses ride out the TTL.
type readCache struct {
	ttl time.Duration
	now func() time.Time // injectable clock for TTL tests

	mu      sync.Mutex
	entries map[string]*cacheEntry
	flights map[string]*flight
	floor   int64 // highest prune floor witnessed; entries never serve below it
}

// cacheEntry is one cached term. pl is read-only once stored: it is
// handed to callers directly, who must not mutate it (Fetch callers
// already treat PeerLists as immutable).
type cacheEntry struct {
	pl       PeerList
	expires  time.Time
	minEpoch int64 // lowest post epoch in pl; floor ≥ this evicts
	negative bool  // cached "term has no posts"

	decMu   sync.Mutex
	decoded map[string]decodedSynopsis // peer → decoded set
}

// decodedSynopsis memoizes one post's unmarshaled synopsis. The epoch
// pins it to a publication round; routing treats candidate synopses as
// read-only, so the same Set is safely shared across queries and
// parallel scoring goroutines.
type decodedSynopsis struct {
	epoch int64
	set   synopsis.Set
}

// flight is one in-progress fetch of a term. The owner closes done
// after publishing pl/err; waiters block on done instead of issuing
// their own RPCs.
type flight struct {
	done chan struct{}
	pl   PeerList
	err  error
}

func newReadCache(ttl time.Duration) *readCache {
	return &readCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[string]*cacheEntry),
		flights: make(map[string]*flight),
	}
}

// lookup returns the live entry for term. stale reports that an expired
// entry was found and evicted.
func (rc *readCache) lookup(term string) (e *cacheEntry, ok, stale bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e = rc.entries[term]
	if e == nil {
		return nil, false, false
	}
	if rc.now().After(e.expires) {
		delete(rc.entries, term)
		return nil, false, true
	}
	return e, true, false
}

// store caches a freshly fetched PeerList, filtering posts below the
// witnessed prune floor, and returns the stored (possibly filtered)
// copy. An empty list becomes a negative entry.
func (rc *readCache) store(term string, pl PeerList) PeerList {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cp := make(PeerList, 0, len(pl))
	minEpoch := int64(math.MaxInt64)
	for _, p := range pl {
		if p.Epoch < rc.floor {
			continue
		}
		cp = append(cp, p)
		if p.Epoch < minEpoch {
			minEpoch = p.Epoch
		}
	}
	rc.entries[term] = &cacheEntry{
		pl:       cp,
		expires:  rc.now().Add(rc.ttl),
		minEpoch: minEpoch,
		negative: len(cp) == 0,
	}
	return cp
}

// invalidate evicts a term; reports whether an entry existed.
func (rc *readCache) invalidate(term string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.entries[term]; !ok {
		return false
	}
	delete(rc.entries, term)
	return true
}

// refreshIfCached replaces a cached term with repaired posts, but only
// when the term is already cached (repair must not grow the cache).
// Reports whether a refresh happened.
func (rc *readCache) refreshIfCached(term string, pl PeerList) bool {
	rc.mu.Lock()
	_, exists := rc.entries[term]
	rc.mu.Unlock()
	if !exists {
		return false
	}
	rc.store(term, pl)
	return true
}

// raiseFloor records a witnessed prune floor and evicts every entry
// holding a post below it (negative entries hold nothing and stay).
// Returns how many entries were evicted.
func (rc *readCache) raiseFloor(floor int64) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if floor <= rc.floor {
		return 0
	}
	rc.floor = floor
	evicted := 0
	for term, e := range rc.entries {
		if !e.negative && e.minEpoch < floor {
			delete(rc.entries, term)
			evicted++
		}
	}
	return evicted
}

// begin joins or starts the in-flight fetch for a term. The second
// return is true when the caller became the owner and must finish the
// flight on every path.
func (rc *readCache) begin(term string) (*flight, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if f, ok := rc.flights[term]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	rc.flights[term] = f
	return f, true
}

// finish publishes a flight's outcome and wakes its waiters.
func (rc *readCache) finish(term string, f *flight, pl PeerList, err error) {
	rc.mu.Lock()
	if rc.flights[term] == f {
		delete(rc.flights, term)
	}
	rc.mu.Unlock()
	f.pl, f.err = pl, err
	close(f.done)
}

// decodedSynopsis unmarshals a post's synopsis through the per-entry
// decode cache: one decode per (term, peer, epoch) while the entry
// lives, shared across queries.
func (rc *readCache) decodedSynopsis(post Post, m *telemetry.Registry) (synopsis.Set, error) {
	rc.mu.Lock()
	e := rc.entries[post.Term]
	rc.mu.Unlock()
	if e == nil {
		m.Counter("directory.cache_synopsis_decodes").Inc()
		return synopsis.Unmarshal(post.Synopsis)
	}
	e.decMu.Lock()
	defer e.decMu.Unlock()
	if d, ok := e.decoded[post.Peer]; ok && d.epoch == post.Epoch {
		m.Counter("directory.cache_synopsis_reuse").Inc()
		return d.set, nil
	}
	set, err := synopsis.Unmarshal(post.Synopsis)
	if err != nil {
		return nil, err
	}
	m.Counter("directory.cache_synopsis_decodes").Inc()
	if e.decoded == nil {
		e.decoded = make(map[string]decodedSynopsis)
	}
	e.decoded[post.Peer] = decodedSynopsis{epoch: post.Epoch, set: set}
	return set, nil
}

// EnableCache arms the client's directory read cache with the given TTL
// (≤ 0 disables it). Like the other Client knobs, set it before the
// client is shared across goroutines.
func (c *Client) EnableCache(ttl time.Duration) {
	if ttl <= 0 {
		c.cache = nil
		return
	}
	c.cache = newReadCache(ttl)
}

// InvalidateCachedTerm evicts one term from the read cache (no-op when
// the cache is disabled or the term is not cached). Republishes, prunes
// and repairs — local or observed via Service.SetInvalidation — call
// this so the cache never outlives a witnessed write.
func (c *Client) InvalidateCachedTerm(term string) {
	if c.cache == nil || term == "" {
		return
	}
	if c.cache.invalidate(term) {
		c.Metrics.Counter("directory.cache_invalidations").Inc()
	}
}

// ObserveFloor tells the read cache about a prune floor the client has
// witnessed (its own PruneBelow, a repair exchange, or a colocated
// Service mutation). Entries holding posts below the floor
// are evicted, so resurrected stale posts can never be served from
// cache past the prune discipline.
func (c *Client) ObserveFloor(floor int64) {
	if c.cache == nil {
		return
	}
	if n := c.cache.raiseFloor(floor); n > 0 {
		c.Metrics.Counter("directory.cache_invalidations").Add(int64(n))
	}
}

// DecodedSynopsis unmarshals a post's synopsis, memoized per (term,
// peer, epoch) while the term's cache entry lives. The returned Set is
// shared — callers must treat it as read-only (the routing layer does).
// With the cache disabled this is a plain synopsis.Unmarshal.
func (c *Client) DecodedSynopsis(post Post) (synopsis.Set, error) {
	if c.cache == nil {
		return synopsis.Unmarshal(post.Synopsis)
	}
	return c.cache.decodedSynopsis(post, c.Metrics)
}

// fetchAllCached is the cache-aware front of fetchAllReport: cache hits
// are served locally, misses are coalesced per term (one in-flight
// fetch; concurrent readers wait on it), and only the remaining terms
// go to the network. With Fresh set, every term is re-fetched and the
// cache refreshed.
func (c *Client) fetchAllCached(terms []string, budget time.Duration, opt FetchOptions) (map[string]PeerList, FetchReport, error) {
	rc := c.cache
	if rc == nil {
		return c.fetchAllReport(terms, budget)
	}
	m := c.Metrics
	out := make(map[string]PeerList, len(terms))
	rep := FetchReport{Winners: make(map[string]string, len(terms))}
	seen := make(map[string]struct{}, len(terms))
	var owned []string
	ownedFlights := make(map[string]*flight)
	type pending struct {
		term string
		f    *flight
	}
	var waits []pending
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if !opt.Fresh {
			e, ok, stale := rc.lookup(t)
			if ok {
				m.Counter("directory.cache_hits").Inc()
				if e.negative {
					m.Counter("directory.cache_negative_hits").Inc()
				}
				out[t] = e.pl
				continue
			}
			if stale {
				m.Counter("directory.cache_stale_evictions").Inc()
			}
			m.Counter("directory.cache_misses").Inc()
			f, owner := rc.begin(t)
			if !owner {
				m.Counter("directory.cache_coalesced_waits").Inc()
				waits = append(waits, pending{term: t, f: f})
				continue
			}
			ownedFlights[t] = f
		}
		owned = append(owned, t)
	}
	if len(owned) > 0 {
		got, frep, err := c.fetchAllReport(owned, budget)
		rep.Errors = append(rep.Errors, frep.Errors...)
		for t, w := range frep.Winners {
			rep.Winners[t] = w
		}
		if err != nil {
			for t, f := range ownedFlights {
				rc.finish(t, f, nil, err)
			}
			return nil, rep, err
		}
		for _, t := range owned {
			pl := rc.store(t, got[t])
			if f := ownedFlights[t]; f != nil {
				rc.finish(t, f, pl, nil)
			}
			out[t] = pl
		}
	}
	for _, w := range waits {
		<-w.f.done
		if w.f.err != nil {
			return nil, rep, w.f.err
		}
		out[w.term] = w.f.pl
	}
	return out, rep, nil
}
