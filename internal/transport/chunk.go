package transport

import "math"

// This file declares the query-forwarding RPC (Query, served by every
// minerva peer): ChunkRequest carries the query shape and a cursor to
// the peer, ResultChunk carries one chunk of its score-sorted local
// result list back. Both directions are frames of frame.go's codec, so
// the RPC is one more method-table entry, fuzzed and pinned like the
// Chord and directory methods.
//
// A peer streams its result list to the query initiator one chunk at a
// time, and the initiator's threshold coordinator stops pulling the
// moment the peer provably cannot crack the merged top-k — so these
// frames are the dominant cost of the protocol. An entry is a varint
// doc ID and 8 score bytes: a 16-entry chunk is ~200 bytes.
//
// K, offset and size are at most math.MaxInt32 on both sides of the
// wire (the encoder writes whatever it is given; the initiator checks
// its options before routing), so a hostile request cannot ask a peer
// to size anything by a 64-bit count.

// queryLimit caps the terms of a request and the entries of a chunk:
// far above any real chunk size (initiators pull tens of entries at a
// time) while keeping a hostile count from driving a large allocation
// even when backed by bytes.
const queryLimit = 1 << 20

// entryBytes is the fewest body bytes one encoded entry takes: a
// one-byte doc varint and the 8 score bytes.
const entryBytes = 1 + 8

// Query is the query-forwarding RPC: one call pulls one chunk of a
// peer's result stream.
var Query = Method[ChunkRequest, ResultChunk]{
	Name: "peer.query", Limit: queryLimit,
	EncodeReq: putChunkRequest, DecodeReq: getChunkRequest,
	EncodeResp: putResultChunk, DecodeResp: getResultChunk,
}

// ScoredEntry is one (document, score) pair of a result chunk.
type ScoredEntry struct {
	// Doc is the global document identifier.
	Doc uint64
	// Score is the document's aggregated query score.
	Score float64
}

// ResultChunk is one decoded frame of an incremental result stream.
type ResultChunk struct {
	// Gen identifies the server's index snapshot generation. A stream's
	// cursor (entry offset) is only meaningful within one generation;
	// initiators restart the stream when it changes.
	Gen uint64
	// Done reports that the stream is exhausted: the server has no
	// entries beyond this chunk.
	Done bool
	// Entries are the chunk's results, in descending score order
	// (ties: ascending doc ID) — the stream-wide sort order.
	Entries []ScoredEntry
}

// EncodeChunk returns the Query response frame of c.
func EncodeChunk(c ResultChunk) []byte { return Query.EncodeResponse(c) }

// DecodeChunk parses a Query response frame.
func DecodeChunk(data []byte) (ResultChunk, error) { return Query.DecodeResponse(data) }

// ChunkRequest is one decoded query-forwarding request.
type ChunkRequest struct {
	// Terms are the query terms, in the initiator's order.
	Terms []string
	// K is the depth of the peer's local top-K (0: the server default).
	K int
	// Conjunctive selects the conjunctive query model.
	Conjunctive bool
	// Offset is the cursor: how many entries of the stream the
	// initiator already holds.
	Offset int
	// Size is the number of entries to return (0: the server default).
	Size int
	// Gen pins the snapshot generation the cursor belongs to; 0 means
	// any (a stream's first pull).
	Gen uint64
}

// A request is its fields in declaration order: the term count and
// terms, K, the conjunctive bool, offset, size and generation.
func putChunkRequest(e *Encoder, r ChunkRequest) {
	e.Uint(uint64(len(r.Terms)))
	for _, t := range r.Terms {
		e.String(t)
	}
	e.Uint(uint64(r.K))
	e.Bool(r.Conjunctive)
	e.Uint(uint64(r.Offset))
	e.Uint(uint64(r.Size))
	e.Uint(r.Gen)
}

func getChunkRequest(d *Decoder) ChunkRequest {
	var r ChunkRequest
	if n := d.Count(1); n > 0 {
		r.Terms = make([]string, n)
		for i := range r.Terms {
			r.Terms[i] = d.String()
		}
	}
	r.K = getInt32(d, "K")
	r.Conjunctive = d.Bool()
	r.Offset = getInt32(d, "offset")
	r.Size = getInt32(d, "size")
	r.Gen = d.Uint()
	return r
}

// getInt32 reads an unsigned integer that must fit in [0, MaxInt32].
func getInt32(d *Decoder, name string) int {
	v := d.Uint()
	if v > math.MaxInt32 {
		d.Fail("%s %d above %d", name, v, math.MaxInt32)
		return 0
	}
	return int(v)
}

// A chunk is the generation, the done bool, and the entry count, then
// each entry's doc and score.
func putResultChunk(e *Encoder, c ResultChunk) {
	e.Uint(c.Gen)
	e.Bool(c.Done)
	e.Uint(uint64(len(c.Entries)))
	for _, x := range c.Entries {
		e.Uint(x.Doc)
		e.Float(x.Score)
	}
}

func getResultChunk(d *Decoder) ResultChunk {
	c := ResultChunk{Gen: d.Uint(), Done: d.Bool()}
	if n := d.Count(entryBytes); n > 0 {
		c.Entries = make([]ScoredEntry, n)
		for i := range c.Entries {
			c.Entries[i] = ScoredEntry{Doc: d.Uint(), Score: d.Float()}
		}
	}
	return c
}
