package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzTCPFrame fuzzes the wire-format decoders (readRequestFrame and
// readResponseFrame over the same chunk framing) with arbitrary byte
// streams: truncated frames, length prefixes larger than the stream or
// the frame limit, and garbage gob payloads must all return errors —
// never panic, and never allocate anywhere near the claimed length of a
// lying prefix.
func FuzzTCPFrame(f *testing.F) {
	// Well-formed request frame.
	var good muxFrame
	good.encodeRequest(7, "echo", []byte("payload"))
	f.Add(good.buf)
	// Well-formed ok and error responses.
	var okResp, errResp muxFrame
	okResp.encodeResponse(7, []byte("result"), nil)
	f.Add(okResp.buf)
	errResp.encodeResponse(1<<40, nil, errors.New("boom"))
	f.Add(errResp.buf)
	// The payload chunk of a request with id 1 and an empty method, and
	// the body chunk of an ok response with id 1, start at the same
	// offset, so one seed puts a bad length prefix in front of both
	// decoders' readChunk.
	hdr := make([]byte, binary.MaxVarintLen64)
	prefixed := func(n uint64, data string) []byte {
		frame := []byte{1, 0}
		frame = append(frame, hdr[:binary.PutUvarint(hdr, n)]...)
		return append(frame, data...)
	}
	// Truncated frame: header promises more than the stream holds.
	f.Add(prefixed(1000, "short"))
	// Oversized prefix: larger than maxFrame.
	f.Add(prefixed(maxFrame+1, ""))
	// Lying prefix just under the limit with almost no data: must error
	// from truncation without committing a maxFrame-sized allocation.
	f.Add(prefixed(maxFrame-1, "x"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Request path: either both chunks decode within bounds, or an
		// error — never a panic.
		_, method, payload, err := readRequestFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(method) > maxFrame || len(payload) > maxFrame {
				t.Fatalf("decoded chunk exceeds frame limit: method=%d payload=%d", len(method), len(payload))
			}
			// A successful decode can never claim more bytes than the
			// input held.
			if len(method)+len(payload) > len(data) {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(method)+len(payload), len(data))
			}
		}
		// Response path over the same bytes.
		_, _, body, err := readResponseFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(body) > maxFrame {
				t.Fatalf("decoded response exceeds frame limit: body=%d", len(body))
			}
			if len(body) > len(data) {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(body), len(data))
			}
		}
		// Payloads that survived framing still hit gob: arbitrary bytes
		// must error cleanly, not panic.
		var decoded struct {
			Terms []string
			K     int
		}
		_ = Unmarshal(data, &decoded)
	})
}

// TestReadChunkLyingPrefix pins the incremental-growth behavior outside
// the fuzzer: a frame claiming maxFrame-1 bytes but delivering one must
// fail without allocating the claimed size.
func TestReadChunkLyingPrefix(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxFrame-1)
	buf.Write(hdr[:n])
	buf.WriteString("only this")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := buf.Bytes()
			if _, err := readChunk(bufio.NewReader(bytes.NewReader(data))); err == nil {
				b.Fatal("lying prefix decoded successfully")
			}
		}
	})
	// The 64KiB-step growth means a truncated stream of ~10 bytes commits
	// at most one step (plus reader buffers), nowhere near the claimed
	// 64MiB.
	if per := res.AllocedBytesPerOp(); per > 1<<20 {
		t.Fatalf("lying prefix allocated %d bytes/op (limit 1MiB)", per)
	}
}

func TestReadChunkOversizedPrefix(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxFrame+1)
	buf.Write(hdr[:n])
	if _, err := readChunk(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized prefix accepted")
	}
}

// FuzzResultChunk fuzzes the chunked-result frame codec with arbitrary
// bytes: truncated frames, unknown versions, lying entry counts, and
// garbage must all return errors — never panic, and never allocate an
// entries slice the bytes cannot back. Frames that do decode must
// re-encode to the exact same bytes (the codec has one canonical form).
func FuzzResultChunk(f *testing.F) {
	f.Add(EncodeChunk(ResultChunk{}))
	f.Add(EncodeChunk(ResultChunk{Gen: 7, Done: true}))
	f.Add(EncodeChunk(ResultChunk{
		Gen: 1 << 40,
		Entries: []ScoredEntry{
			{Doc: 42, Score: 3.5},
			{Doc: 41, Score: 3.5},
			{Doc: 9000000, Score: -1.25},
		},
	}))
	// Lying count: claims many entries, carries none.
	lying := []byte{chunkVersion, 0, 0, 0xff, 0xff, 0x03}
	f.Add(lying)
	// Unknown version and unknown flags.
	f.Add([]byte{99, 0, 0, 0})
	f.Add([]byte{chunkVersion, 0x80, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if len(c.Entries) > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(c.Entries), len(data))
		}
		round := EncodeChunk(c)
		if !bytes.Equal(round, data) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data, round)
		}
	})
}

// TestResultChunkRoundTrip pins the codec outside the fuzzer: typical
// chunks survive encode/decode exactly, including NaN-free negative and
// tied scores and the done flag.
func TestResultChunkRoundTrip(t *testing.T) {
	chunks := []ResultChunk{
		{},
		{Gen: 1, Done: true},
		{Gen: 123456789, Entries: []ScoredEntry{{Doc: 0, Score: 0}}},
		{Gen: 3, Done: true, Entries: []ScoredEntry{
			{Doc: 18446744073709551615, Score: 12.75},
			{Doc: 5, Score: 12.75},
			{Doc: 6, Score: -0.5},
		}},
	}
	for i, c := range chunks {
		got, err := DecodeChunk(EncodeChunk(c))
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if got.Gen != c.Gen || got.Done != c.Done || len(got.Entries) != len(c.Entries) {
			t.Fatalf("chunk %d: round trip %+v != %+v", i, got, c)
		}
		for j := range c.Entries {
			if got.Entries[j] != c.Entries[j] {
				t.Fatalf("chunk %d entry %d: %+v != %+v", i, j, got.Entries[j], c.Entries[j])
			}
		}
	}
}

// TestResultChunkLyingCount pins the allocation bound: a count claiming
// the maximum cannot allocate anywhere near it when the frame is a
// handful of bytes.
func TestResultChunkLyingCount(t *testing.T) {
	frame := []byte{chunkVersion, 0, 0}
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxChunkEntries)
	frame = append(frame, hdr[:n]...)
	frame = append(frame, "short"...)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeChunk(frame); err == nil {
				b.Fatal("lying count decoded successfully")
			}
		}
	})
	if per := res.AllocedBytesPerOp(); per > 1<<12 {
		t.Fatalf("lying count allocated %d bytes/op (limit 4KiB)", per)
	}
	over := []byte{chunkVersion, 0, 0}
	n = binary.PutUvarint(hdr, maxChunkEntries+1)
	over = append(over, hdr[:n]...)
	if _, err := DecodeChunk(over); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestReadChunkLargeValid(t *testing.T) {
	// A genuine multi-step frame (crosses the 64KiB growth step) round
	// trips intact.
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	got, err := readChunk(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-step chunk corrupted")
	}
}

// goldenChunkRequest is the request pinned, byte for byte, by
// testdata/chunk_request_v1.hex.
var goldenChunkRequest = ChunkRequest{
	Terms: []string{"forest", "fire"}, K: 50, Conjunctive: true, Offset: 16, Size: 16, Gen: 300,
}

func readGoldenChunkRequest(tb testing.TB) []byte {
	tb.Helper()
	text, err := os.ReadFile("testdata/chunk_request_v1.hex")
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzChunkRequest fuzzes the query request frame decoder: arbitrary
// bytes must error or decode — never panic — and a decode never holds
// more terms or term bytes than the input carried. Frames that do decode
// re-encode to the exact same bytes (one canonical form per request).
func FuzzChunkRequest(f *testing.F) {
	mustEncode := func(r ChunkRequest) []byte {
		b, err := EncodeChunkRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// A pull: the whole local top-K in one chunk.
	f.Add(mustEncode(ChunkRequest{Terms: []string{"p2p", "routing"}, K: 50, Size: 50}))
	// A conjunctive request.
	f.Add(mustEncode(ChunkRequest{Terms: []string{"a", "b", "a"}, K: 10, Conjunctive: true, Size: 4}))
	// A cursor into a pinned generation.
	f.Add(mustEncode(ChunkRequest{Terms: []string{"q"}, K: 100, Offset: 32, Size: 16, Gen: 1 << 40}))
	// Zero terms.
	f.Add(mustEncode(ChunkRequest{}))
	f.Add(readGoldenChunkRequest(f))
	// Lying term count and term length, an out-of-range K, unknown
	// version and flags, a trailing byte.
	f.Add([]byte{requestVersion, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03})
	f.Add([]byte{requestVersion, 0, 0, 0, 0, 0, 1, 0xff, 0x7f, 'x'})
	f.Add([]byte{requestVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0})
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{requestVersion, 0x80, 0, 0, 0, 0, 0})
	f.Add([]byte{requestVersion, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeChunkRequest(data)
		if err != nil {
			return
		}
		termBytes := 0
		for _, term := range r.Terms {
			termBytes += len(term)
		}
		if len(r.Terms) > len(data) || termBytes > len(data) {
			t.Fatalf("decoded %d terms of %d bytes from %d bytes", len(r.Terms), termBytes, len(data))
		}
		round, err := EncodeChunkRequest(r)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", r, err)
		}
		if !bytes.Equal(round, data) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data, round)
		}
	})
}

// TestChunkRequestGolden pins the version-1 request layout: the golden
// request encodes to the committed bytes and decodes back from them.
func TestChunkRequestGolden(t *testing.T) {
	want := readGoldenChunkRequest(t)
	got, err := EncodeChunkRequest(goldenChunkRequest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got  %x\n want %x", got, want)
	}
	back, err := DecodeChunkRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenChunkRequest) {
		t.Fatalf("decoded %+v, want %+v", back, goldenChunkRequest)
	}
}

// TestChunkRequestLimits: K, offset and size above math.MaxInt32 are
// refused on both sides of the wire, negative ones by the encoder; a
// lying term count allocates nothing sized by the count.
func TestChunkRequestLimits(t *testing.T) {
	for _, r := range []ChunkRequest{
		{K: -1}, {Offset: -1}, {Size: -1},
		{K: math.MaxInt32 + 1}, {Offset: math.MaxInt32 + 1}, {Size: math.MaxInt32 + 1},
	} {
		if _, err := EncodeChunkRequest(r); err == nil {
			t.Fatalf("encoded out-of-range request %+v", r)
		}
	}
	if _, err := EncodeChunkRequest(ChunkRequest{K: math.MaxInt32, Offset: math.MaxInt32, Size: math.MaxInt32}); err != nil {
		t.Fatalf("MaxInt32 fields refused: %v", err)
	}
	for field := 0; field < 3; field++ {
		frame := []byte{requestVersion, 0}
		for i := 0; i < 3; i++ {
			v := uint64(7)
			if i == field {
				v = math.MaxInt32 + 1
			}
			frame = binary.AppendUvarint(frame, v)
		}
		frame = append(frame, 0, 0)
		if _, err := DecodeChunkRequest(frame); err == nil {
			t.Fatalf("field %d above MaxInt32 decoded", field)
		}
	}
	lying := []byte{requestVersion, 0, 0, 0, 0, 0}
	lying = binary.AppendUvarint(lying, 1<<40)
	lying = append(lying, "short"...)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeChunkRequest(lying); err == nil {
			t.Fatal("lying term count decoded")
		}
	})
	// The error value itself is all that may be allocated.
	if allocs > 4 {
		t.Fatalf("lying term count made %.0f allocations", allocs)
	}
}

// TestChunkRequestRoundTripAllocs guards the request path of every
// forwarded query: encoding allocates the frame, decoding the term
// slice and one string holding every term.
func TestChunkRequestRoundTripAllocs(t *testing.T) {
	frame, err := EncodeChunkRequest(goldenChunkRequest)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(100, func() {
		if _, err := EncodeChunkRequest(goldenChunkRequest); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(100, func() {
		if _, err := DecodeChunkRequest(frame); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 2 {
		t.Fatalf("request round trip: %.0f encode + %.0f decode allocations, limits 1 + 2", enc, dec)
	}
}
