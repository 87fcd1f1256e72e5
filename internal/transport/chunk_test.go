package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenChunkRequest and goldenResultChunk are the Query frames pinned,
// byte for byte, by testdata/query_request_v1.hex and
// testdata/query_reply_v1.hex.
var (
	goldenChunkRequest = ChunkRequest{
		Terms: []string{"forest", "fire"}, K: 50, Conjunctive: true, Offset: 16, Size: 16, Gen: 300,
	}
	goldenResultChunk = ResultChunk{Gen: 300, Done: true, Entries: []ScoredEntry{
		{Doc: 42, Score: 3.5},
		{Doc: 1 << 33, Score: -1.25},
	}}
)

func readGolden(tb testing.TB, path string) []byte {
	tb.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzChunkRequest fuzzes the request frame of the chunk-request RPC
// (Query): arbitrary bytes must error or decode — never panic — and a
// decode never holds more terms or term bytes than the input carried. A
// frame that decodes re-encodes to the exact same bytes (one canonical
// form per request).
func FuzzChunkRequest(f *testing.F) {
	frame := queryFrame
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// A pull (the whole local top-K in one chunk), a conjunctive request,
	// a cursor into a pinned generation, zero terms, the golden vector.
	f.Add(Query.EncodeRequest(ChunkRequest{Terms: []string{"p2p", "routing"}, K: 50, Size: 50}))
	f.Add(Query.EncodeRequest(ChunkRequest{Terms: []string{"a", "b", "a"}, K: 10, Conjunctive: true, Size: 4}))
	f.Add(Query.EncodeRequest(ChunkRequest{Terms: []string{"q"}, K: 100, Offset: 32, Size: 16, Gen: 1 << 40}))
	f.Add(Query.EncodeRequest(ChunkRequest{}))
	f.Add(readGolden(f, "testdata/query_request_v1.hex"))
	// A lying term count and term length, an out-of-range K, an unknown
	// version, a bool of 2, a trailing byte, nothing.
	f.Add(frame(uv(1<<40), []byte("short")))
	f.Add([]byte{frameVersion, 1, 0, 1, 0x7f, 0, 0, 0, 0, 0, 'x'})
	f.Add(frame([]byte{0}, uv(math.MaxInt32+1), []byte{0, 0, 0, 0}))
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(frame([]byte{0, 0, 2, 0, 0, 0}))
	f.Add(frame([]byte{0, 0, 0, 0, 0, 0, 0}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Query.DecodeRequest(data)
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
		if round := Query.EncodeRequest(r); !bytes.Equal(round, data) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data, round)
		}
	})
}

// FuzzResultChunk fuzzes the response frame of the chunk-request RPC
// (Query): truncated frames, unknown versions, lying entry counts and
// garbage must all return errors — never panic, and never allocate an
// entries slice the bytes cannot back. A frame that decodes re-encodes
// to the exact same bytes (the codec has one canonical form).
func FuzzResultChunk(f *testing.F) {
	frame := queryFrame
	// Empty, final, three entries.
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
	// A lying entry count, an unknown version, a done bool of 2,
	// nothing, the golden vector.
	f.Add(frame([]byte{0, 0}, binary.AppendUvarint(nil, queryLimit)))
	f.Add([]byte{99, 0, 0, 0, 0, 0})
	f.Add(frame([]byte{0, 2, 0}))
	f.Add([]byte{})
	f.Add(readGolden(f, "testdata/query_reply_v1.hex"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if len(c.Entries) > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(c.Entries), len(data))
		}
		if round := EncodeChunk(c); !bytes.Equal(round, data) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data, round)
		}
	})
}

// queryFrame builds a Query frame body by hand: the version-1 header with
// no string or byte section, then parts in order.
func queryFrame(parts ...[]byte) []byte {
	hdr := []byte{frameVersion, 0, 0}
	return bytes.Join(append([][]byte{hdr}, parts...), nil)
}

// TestChunkRequestGolden pins the version-1 request layout: the golden
// request encodes to the committed bytes and decodes back from them.
func TestChunkRequestGolden(t *testing.T) {
	want := readGolden(t, "testdata/query_request_v1.hex")
	if got := Query.EncodeRequest(goldenChunkRequest); !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got  %x\n want %x", got, want)
	}
	back, err := Query.DecodeRequest(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenChunkRequest) {
		t.Fatalf("decoded %+v, want %+v", back, goldenChunkRequest)
	}
}

// TestResultChunkGolden pins the version-1 response layout.
func TestResultChunkGolden(t *testing.T) {
	want := readGolden(t, "testdata/query_reply_v1.hex")
	if got := EncodeChunk(goldenResultChunk); !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got  %x\n want %x", got, want)
	}
	back, err := DecodeChunk(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenResultChunk) {
		t.Fatalf("decoded %+v, want %+v", back, goldenResultChunk)
	}
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
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("chunk %d: round trip %+v != %+v", i, got, c)
		}
	}
}

// TestResultChunkLyingCount pins the allocation bound: a count claiming
// the maximum cannot allocate anywhere near it when the frame is a
// handful of bytes, and a count above the limit is refused as such.
func TestResultChunkLyingCount(t *testing.T) {
	lying := func(count uint64) []byte {
		frame := []byte{frameVersion, 0, 0, 0, 0} // header, generation, done
		return append(binary.AppendUvarint(frame, count), "short"...)
	}
	frame := lying(queryLimit)
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
	if _, err := DecodeChunk(lying(queryLimit + 1)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized count: %v, want a limit error", err)
	}
}

// TestChunkRequestLimits: K, offset and size outside [0, MaxInt32] are
// refused by the decoder (the encoder writes a negative one as a huge
// unsigned value); a lying term count allocates nothing sized by the
// count.
func TestChunkRequestLimits(t *testing.T) {
	for _, r := range []ChunkRequest{
		{K: -1}, {Offset: -1}, {Size: -1},
		{K: math.MaxInt32 + 1}, {Offset: math.MaxInt32 + 1}, {Size: math.MaxInt32 + 1},
	} {
		if _, err := Query.DecodeRequest(Query.EncodeRequest(r)); err == nil {
			t.Fatalf("decoded out-of-range request %+v", r)
		}
	}
	widest := ChunkRequest{K: math.MaxInt32, Offset: math.MaxInt32, Size: math.MaxInt32}
	if got, err := Query.DecodeRequest(Query.EncodeRequest(widest)); err != nil || !reflect.DeepEqual(got, widest) {
		t.Fatalf("MaxInt32 fields: %+v, %v", got, err)
	}
	lying := append(binary.AppendUvarint([]byte{frameVersion, 0, 0}, 1<<40), "short"...)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Query.DecodeRequest(lying); err == nil {
			t.Fatal("lying term count decoded")
		}
	})
	// The error value itself (errFrame wrapped with the formatted count
	// and limit, 5 allocations) is all that may be allocated.
	if allocs > 8 {
		t.Fatalf("lying term count made %.0f allocations", allocs)
	}
}

// TestChunkRequestRoundTripAllocs guards both frames of every forwarded
// query: encoding allocates the frame; decoding a request allocates the
// term slice and one string holding every term, decoding a chunk only
// its entries.
func TestChunkRequestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under -race")
	}
	frame := Query.EncodeRequest(goldenChunkRequest)
	enc := testing.AllocsPerRun(100, func() { Query.EncodeRequest(goldenChunkRequest) })
	dec := testing.AllocsPerRun(100, func() {
		if _, err := Query.DecodeRequest(frame); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 2 {
		t.Fatalf("request round trip: %.0f encode + %.0f decode allocations, limits 1 + 2", enc, dec)
	}
	chunk := ResultChunk{Gen: 9, Entries: make([]ScoredEntry, 16)}
	for i := range chunk.Entries {
		chunk.Entries[i] = ScoredEntry{Doc: uint64(1000 + i), Score: float64(16 - i)}
	}
	reply := EncodeChunk(chunk)
	enc = testing.AllocsPerRun(100, func() { EncodeChunk(chunk) })
	dec = testing.AllocsPerRun(100, func() {
		if _, err := DecodeChunk(reply); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 1 {
		t.Fatalf("16-entry chunk round trip: %.0f encode + %.0f decode allocations, limits 1 + 1", enc, dec)
	}
}
