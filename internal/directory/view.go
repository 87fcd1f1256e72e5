package directory

import (
	"slices"
	"sort"
	"sync"

	"iqn/internal/chord"
)

// ownerView is a reading client's map of the directory ring as the
// owners themselves stated it. Every dir.get reply carries the serving
// node's predecessor ID, so an owner that answers names the interval
// (pred, owner] it serves; the view keeps that interval with the replica
// set the client read it through. A read of a term whose key falls in a
// known interval goes straight to that owner, with no Chord lookup, and
// the reply is checked against the interval its server states now
// (Client.confirm): a stale entry costs one more dir.get, never a wrong
// answer. Writes never consult the view.
//
// Entries are sorted by owner ID and pairwise disjoint: a new interval
// replaces every entry it overlaps, so the view holds at most one entry
// per ring node, and at most chord.MaxRing entries in all.
type ownerView struct {
	mu      sync.Mutex
	entries []viewEntry
}

// viewEntry is one confirmed interval (pred, owner]. addrs is the
// replica set, owner first; it is never modified once stored, so find
// hands it out without copying.
type viewEntry struct {
	pred, owner chord.ID
	addrs       []string
}

// find returns the replica set of the entry whose interval holds key.
// Intervals are disjoint, so only the entry with the first owner at or
// clockwise after key can hold it.
func (v *ownerView) find(key chord.ID) ([]string, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.entries) == 0 {
		return nil, false
	}
	e := v.entries[v.search(key)%len(v.entries)]
	if !chord.InInterval(e.pred, key, e.owner) {
		return nil, false
	}
	return e.addrs, true
}

// search returns the index of the first entry whose owner is at or after
// id, len(entries) when there is none. Callers hold mu.
func (v *ownerView) search(id chord.ID) int {
	return sort.Search(len(v.entries), func(i int) bool { return v.entries[i].owner >= id })
}

// learn records the interval (pred, owner] an owner confirmed, read
// through the replica set addrs (owner first, which the view takes
// ownership of). Every entry the interval overlaps is dropped first; a
// full view drops its lowest entry to make room.
func (v *ownerView) learn(pred, owner chord.ID, addrs []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := v.search(owner)
	if i < len(v.entries) {
		if e := v.entries[i]; e.owner == owner && e.pred == pred && slices.Equal(e.addrs, addrs) {
			return
		}
	}
	kept := v.entries[:0]
	for _, e := range v.entries {
		if !overlaps(e.pred, e.owner, pred, owner) {
			kept = append(kept, e)
		}
	}
	clear(v.entries[len(kept):])
	if len(kept) >= chord.MaxRing {
		kept = slices.Delete(kept, 0, 1)
	}
	v.entries = kept
	v.entries = slices.Insert(v.entries, v.search(owner), viewEntry{pred: pred, owner: owner, addrs: addrs})
}

// drop forgets every entry whose replica set names addr: a node that
// failed a read, or lost it to a replica, is resolved by a real lookup
// next time.
func (v *ownerView) drop(addr string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	kept := v.entries[:0]
	for _, e := range v.entries {
		if !slices.Contains(e.addrs, addr) {
			kept = append(kept, e)
		}
	}
	clear(v.entries[len(kept):])
	v.entries = kept
}

// overlaps reports whether the ring intervals (a, b] and (c, d] share a
// point: their intersection, when there is one, ends at b or at d, so
// one interval's end lies inside the other. An interval of one node's
// ring (a == b) is the whole circle and overlaps everything.
func overlaps(a, b, c, d chord.ID) bool {
	return chord.InInterval(a, d, b) || chord.InInterval(c, b, d)
}
