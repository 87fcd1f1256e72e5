package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the wire codec for result chunks: the response payload
// of the query-forwarding RPC (minerva.MethodQuery). A peer streams its score-sorted local result list to the query
// initiator one chunk at a time, and the initiator's threshold
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
	buf := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(c.Entries)*(binary.MaxVarintLen64+8))
	var flags byte
	if c.Done {
		flags |= chunkDone
	}
	buf = append(buf, chunkVersion, flags)
	buf = binary.AppendUvarint(buf, c.Gen)
	buf = binary.AppendUvarint(buf, uint64(len(c.Entries)))
	for _, e := range c.Entries {
		buf = binary.AppendUvarint(buf, e.Doc)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Score))
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
