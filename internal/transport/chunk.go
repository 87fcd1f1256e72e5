package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the wire codec of the query-forwarding RPC
// (minerva.MethodQuery) in both directions: ChunkRequest carries the
// query shape and cursor to the peer, ResultChunk carries one chunk of
// results back. Both are hand-encoded frames rather than gob, so
// neither side rebuilds a type decoder per message.
//
// Result chunks. A peer streams its score-sorted local result list to
// the query initiator one chunk at a time, and the initiator's threshold
// coordinator stops pulling the moment the peer provably cannot crack
// the merged top-k — so the dominant cost of the protocol is exactly
// these frames, and they are encoded by hand instead of through gob:
// no per-message type descriptors, varint doc IDs, fixed 8-byte score
// bits. A 16-entry chunk is ~200 bytes where the equivalent gob
// message is ~3× that.
//
// Layout (all integers are unsigned varints unless noted):
//
//	byte    version (chunkVersion)
//	byte    flags (bit 0: done — no entries beyond this chunk)
//	uvarint generation (the server's snapshot identity; cursors are
//	        only valid within one generation)
//	uvarint entry count
//	repeat  count times:
//	  uvarint docID
//	  8 bytes score (IEEE-754 bits, big-endian)
//
// The decoder validates the count against the bytes actually present
// before allocating, so a lying count cannot commit a large allocation
// (the same discipline as the TCP framing's readChunk).

// chunkVersion is the codec version byte; decoders reject anything else.
const chunkVersion = 1

// chunkDone is the flags bit marking the final chunk of a stream.
const chunkDone = 1

// maxChunkEntries bounds one chunk: far above any real chunk size
// (initiators pull tens of entries at a time) while keeping a hostile
// count from driving a large allocation even when backed by bytes.
const maxChunkEntries = 1 << 20

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

// EncodeChunk serializes a chunk into a fresh buffer.
func EncodeChunk(c ResultChunk) []byte {
	return EncodeChunkOf(c.Gen, c.Done, c.Entries, func(e ScoredEntry) (uint64, float64) { return e.Doc, e.Score })
}

// EncodeChunkOf serializes a chunk whose entries are any slice read
// through entry, so a server can encode straight from its own result
// type without first copying it into ScoredEntry values. The bytes are
// exactly EncodeChunk's for the same (doc, score) sequence.
func EncodeChunkOf[E any](gen uint64, done bool, entries []E, entry func(E) (doc uint64, score float64)) []byte {
	buf := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(entries)*(binary.MaxVarintLen64+8))
	var flags byte
	if done {
		flags |= chunkDone
	}
	buf = append(buf, chunkVersion, flags)
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		doc, score := entry(e)
		buf = binary.AppendUvarint(buf, doc)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(score))
	}
	return buf
}

// DecodeChunk parses a chunk frame. Truncated frames, unknown versions,
// and counts the bytes cannot back all return errors — never a panic,
// never an allocation sized by an unverified count.
func DecodeChunk(data []byte) (ResultChunk, error) {
	var c ResultChunk
	if len(data) < 2 {
		return c, fmt.Errorf("transport: result chunk truncated (%d bytes)", len(data))
	}
	if data[0] != chunkVersion {
		return c, fmt.Errorf("transport: result chunk version %d (want %d)", data[0], chunkVersion)
	}
	if data[1]&^chunkDone != 0 {
		return c, fmt.Errorf("transport: result chunk has unknown flags %#x", data[1])
	}
	c.Done = data[1]&chunkDone != 0
	rest := data[2:]
	gen, n := canonicalUvarint(rest)
	if n <= 0 {
		return ResultChunk{}, fmt.Errorf("transport: result chunk generation malformed")
	}
	c.Gen = gen
	rest = rest[n:]
	count, n := canonicalUvarint(rest)
	if n <= 0 {
		return ResultChunk{}, fmt.Errorf("transport: result chunk count malformed")
	}
	rest = rest[n:]
	if count > maxChunkEntries {
		return ResultChunk{}, fmt.Errorf("transport: result chunk claims %d entries (limit %d)", count, maxChunkEntries)
	}
	// Each entry costs at least 1 varint byte + 8 score bytes, so a
	// count the remaining bytes cannot back is rejected before the
	// entries slice is allocated.
	if count*9 > uint64(len(rest)) {
		return ResultChunk{}, fmt.Errorf("transport: result chunk claims %d entries in %d bytes", count, len(rest))
	}
	if count > 0 {
		c.Entries = make([]ScoredEntry, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		doc, n := canonicalUvarint(rest)
		if n <= 0 {
			return ResultChunk{}, fmt.Errorf("transport: result chunk entry %d doc malformed", i)
		}
		rest = rest[n:]
		if len(rest) < 8 {
			return ResultChunk{}, fmt.Errorf("transport: result chunk entry %d score truncated", i)
		}
		score := math.Float64frombits(binary.BigEndian.Uint64(rest))
		rest = rest[8:]
		c.Entries = append(c.Entries, ScoredEntry{Doc: doc, Score: score})
	}
	if len(rest) != 0 {
		return ResultChunk{}, fmt.Errorf("transport: result chunk has %d trailing bytes", len(rest))
	}
	return c, nil
}

// Chunk requests. One forwarded query call: the query shape plus a
// (generation, offset) cursor into the peer's score-sorted result list.
//
// Layout (all integers are canonical unsigned varints unless noted):
//
//	byte    version (requestVersion)
//	byte    flags (bit 0: conjunctive)
//	uvarint K (result-list depth; 0 asks for the server's default)
//	uvarint offset (the cursor: entries already pulled)
//	uvarint size (entries per chunk; 0 asks for the server's default)
//	uvarint generation (0: any; otherwise the snapshot the cursor is in)
//	uvarint term count
//	repeat  count times:
//	  uvarint term length
//	  bytes   term
//
// K, offset and size are at most math.MaxInt32 on both sides of the
// wire, so a hostile request cannot ask a peer to size anything by a
// 64-bit count. A count the remaining bytes cannot back is rejected
// before allocating, as in DecodeChunk.

// requestVersion is the request frame's version byte.
const requestVersion = 1

// requestConjunctive is the flags bit selecting the conjunctive model.
const requestConjunctive = 1

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

// EncodeChunkRequest serializes a request into a fresh buffer. K,
// Offset and Size must lie in [0, math.MaxInt32] — the range the
// decoder accepts.
func EncodeChunkRequest(r ChunkRequest) ([]byte, error) {
	for _, f := range [...]struct {
		name string
		v    int
	}{{"K", r.K}, {"offset", r.Offset}, {"size", r.Size}} {
		if f.v < 0 || f.v > math.MaxInt32 {
			return nil, fmt.Errorf("transport: chunk request %s %d outside [0, %d]", f.name, f.v, math.MaxInt32)
		}
	}
	n := 2 + 5*binary.MaxVarintLen64
	for _, t := range r.Terms {
		n += binary.MaxVarintLen64 + len(t)
	}
	buf := make([]byte, 0, n)
	var flags byte
	if r.Conjunctive {
		flags |= requestConjunctive
	}
	buf = append(buf, requestVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(r.K))
	buf = binary.AppendUvarint(buf, uint64(r.Offset))
	buf = binary.AppendUvarint(buf, uint64(r.Size))
	buf = binary.AppendUvarint(buf, r.Gen)
	buf = binary.AppendUvarint(buf, uint64(len(r.Terms)))
	for _, t := range r.Terms {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return buf, nil
}

// DecodeChunkRequest parses a request frame. Like DecodeChunk it
// returns an error — never panics — on truncated frames, unknown
// versions or flags, non-canonical varints, out-of-range K/offset/size,
// counts the bytes cannot back, and trailing bytes. All terms share one
// string allocation.
func DecodeChunkRequest(data []byte) (ChunkRequest, error) {
	var r ChunkRequest
	if len(data) < 2 {
		return r, fmt.Errorf("transport: chunk request truncated (%d bytes)", len(data))
	}
	if data[0] != requestVersion {
		return r, fmt.Errorf("transport: chunk request version %d (want %d)", data[0], requestVersion)
	}
	if data[1]&^requestConjunctive != 0 {
		return r, fmt.Errorf("transport: chunk request has unknown flags %#x", data[1])
	}
	r.Conjunctive = data[1]&requestConjunctive != 0
	rest := data[2:]
	var ints [3]int
	for i, name := range [...]string{"K", "offset", "size"} {
		v, n := canonicalUvarint(rest)
		if n <= 0 {
			return ChunkRequest{}, fmt.Errorf("transport: chunk request %s malformed", name)
		}
		if v > math.MaxInt32 {
			return ChunkRequest{}, fmt.Errorf("transport: chunk request %s %d above %d", name, v, math.MaxInt32)
		}
		ints[i] = int(v)
		rest = rest[n:]
	}
	r.K, r.Offset, r.Size = ints[0], ints[1], ints[2]
	gen, n := canonicalUvarint(rest)
	if n <= 0 {
		return ChunkRequest{}, fmt.Errorf("transport: chunk request generation malformed")
	}
	r.Gen = gen
	rest = rest[n:]
	count, n := canonicalUvarint(rest)
	if n <= 0 {
		return ChunkRequest{}, fmt.Errorf("transport: chunk request term count malformed")
	}
	rest = rest[n:]
	// Each term costs at least its one-byte length prefix.
	if count > uint64(len(rest)) {
		return ChunkRequest{}, fmt.Errorf("transport: chunk request claims %d terms in %d bytes", count, len(rest))
	}
	if count == 0 {
		if len(rest) != 0 {
			return ChunkRequest{}, fmt.Errorf("transport: chunk request has %d trailing bytes", len(rest))
		}
		return r, nil
	}
	// The first pass validates every length against the bytes left; the
	// second slices each term out of one string copy of the term bytes.
	off := 0
	for i := uint64(0); i < count; i++ {
		l, n := canonicalUvarint(rest[off:])
		if n <= 0 {
			return ChunkRequest{}, fmt.Errorf("transport: chunk request term %d length malformed", i)
		}
		off += n
		if l > uint64(len(rest)-off) {
			return ChunkRequest{}, fmt.Errorf("transport: chunk request term %d claims %d bytes, %d left", i, l, len(rest)-off)
		}
		off += int(l)
	}
	if off != len(rest) {
		return ChunkRequest{}, fmt.Errorf("transport: chunk request has %d trailing bytes", len(rest)-off)
	}
	all := string(rest)
	r.Terms = make([]string, count)
	off = 0
	for i := range r.Terms {
		l, n := binary.Uvarint(rest[off:])
		off += n
		r.Terms[i] = all[off : off+int(l)]
		off += int(l)
	}
	return r, nil
}

// canonicalUvarint decodes an unsigned varint and additionally rejects
// non-minimal encodings (binary.Uvarint accepts them), so every value
// has exactly one wire form and a decoded chunk re-encodes to the same
// bytes — the property that lets tests compare frames byte for byte.
func canonicalUvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, n
	}
	if n > 1 && data[n-1] == 0 {
		// A trailing zero continuation byte adds no value bits: the
		// encoding is longer than necessary.
		return 0, -n
	}
	return v, n
}
