package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: an RPC seen by the transport wrapper, or
// a root the benchmark opened around a search, a publish or a probe
// stage. Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Root   bool   `json:"root,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Peer   string `json:"peer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Out and In are request and response payload bytes (RPC spans only).
	Out int  `json:"out,omitempty"`
	In  int  `json:"in,omitempty"`
	Err bool `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// family is the method family of an RPC span ("chord", "dir", "peer").
func (s span) family() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder sits behind the benchmark's transport wrapper. With tracing
// off it only counts, two atomic adds per call; with tracing on it also
// keeps one span per call, parented to the root open on the calling peer.
type recorder struct {
	epoch   time.Time
	calls   atomic.Int64
	bytes   atomic.Int64
	tracing atomic.Bool
	nextID  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// caller is one peer's view of the recorder: root is the span in flight
// on that peer (0 when none), which its RPCs are parented to. One client
// is pinned per initiator, so at most one root is open per peer.
type caller struct {
	rec  *recorder
	peer string
	root atomic.Int64
}

func (r *recorder) caller(peer string) *caller { return &caller{rec: r, peer: peer} }

// count is the timed-pass path of the wrapper.
func (r *recorder) count(payload int) {
	r.calls.Add(1)
	r.bytes.Add(int64(payload))
}

// rpc records one finished call made by c.
func (c *caller) rpc(method string, start, end time.Time, out, in int, failed bool) {
	r := c.rec
	s := span{
		ID:     r.nextID.Add(1),
		Parent: c.root.Load(),
		Name:   method,
		Peer:   c.peer,
		Start:  int64(start.Sub(r.epoch)),
		End:    int64(end.Sub(r.epoch)),
		Out:    out,
		In:     in,
		Err:    failed,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens a root span on c; the returned func closes it. With
// tracing off both are no-ops.
func (c *caller) begin(name string) func() {
	r := c.rec
	if !r.tracing.Load() {
		return func() {}
	}
	id := r.nextID.Add(1)
	start := time.Now()
	c.root.Store(id)
	return func() {
		end := time.Now()
		c.root.Store(0)
		r.mu.Lock()
		r.spans = append(r.spans, span{
			ID: id, Root: true, Name: name, Peer: c.peer,
			Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		})
		r.mu.Unlock()
	}
}

// counters returns the running call and payload-byte totals.
func (r *recorder) counters() (calls, bytes int64) { return r.calls.Load(), r.bytes.Load() }

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// rootStats is what the ledger needs from one root span and its children.
type rootStats struct {
	span
	// Self is the root's duration minus the union of its children.
	Self int64
	// Calls, Busy, Out and In are per method family: child count, summed
	// child durations, request and response bytes.
	Calls map[string]int
	Busy  map[string]int64
	Out   map[string]int
	In    map[string]int
}

// roots groups spans under their root and computes each root's self time.
func roots(spans []span) []rootStats {
	children := map[int64][]span{}
	var out []rootStats
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if !s.Root {
			continue
		}
		rs := rootStats{span: s, Calls: map[string]int{}, Busy: map[string]int64{}, Out: map[string]int{}, In: map[string]int{}}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range kids {
			f := k.family()
			rs.Calls[f]++
			rs.Busy[f] += k.dur()
			rs.Out[f] += k.Out
			rs.In[f] += k.In
			lo, end := k.Start, k.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		rs.Self = s.dur() - covered
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeTrace writes every span as one JSON object per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
