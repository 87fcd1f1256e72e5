package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
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
