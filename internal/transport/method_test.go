package transport

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// addRPC and pongRPC are the typed methods the transport tests call
// through the table.
var (
	addRPC = Method[[2]int64, int64]{
		Name:       "add",
		EncodeReq:  func(e *Encoder, p [2]int64) { e.Int(p[0]); e.Int(p[1]) },
		DecodeReq:  func(d *Decoder) [2]int64 { return [2]int64{d.Int(), d.Int()} },
		EncodeResp: (*Encoder).Int,
		DecodeResp: (*Decoder).Int,
	}
	pongRPC = Method[struct{}, string]{
		Name:       "get",
		EncodeResp: (*Encoder).String,
		DecodeResp: (*Decoder).String,
	}
)

func add(p [2]int64) (int64, error) { return p[0] + p[1], nil }

func pong(struct{}) (string, error) { return "pong", nil }

// record is a frame exercising every field kind.
type record struct {
	U    uint64
	I    int64
	F    float64
	B    bool
	S    string
	Bin  []byte
	List []record
}

const recordLimit = 16

// recordBytes is the fewest body bytes of one encoded record.
const recordBytes = 1 + 1 + 8 + 1 + 1 + 1 + 1

func putRecord(e *Encoder, r record) {
	e.Uint(r.U)
	e.Int(r.I)
	e.Float(r.F)
	e.Bool(r.B)
	e.String(r.S)
	e.Bytes(r.Bin)
	e.Uint(uint64(len(r.List)))
	for _, c := range r.List {
		putRecord(e, c)
	}
}

func getRecord(d *Decoder) record {
	r := record{U: d.Uint(), I: d.Int(), F: d.Float(), B: d.Bool(), S: d.String(), Bin: d.Bytes()}
	if n := d.Count(recordBytes); n > 0 {
		r.List = make([]record, n)
		for i := range r.List {
			r.List[i] = getRecord(d)
		}
	}
	return r
}

var recordRPC = Method[record, record]{
	Name: "record", Limit: recordLimit,
	EncodeReq: putRecord, DecodeReq: getRecord, EncodeResp: putRecord, DecodeResp: getRecord,
}

// TestFrameRoundTrip encodes every field kind at its edges — negative
// and extreme integers, NaN, ±Inf and −0, empty strings and byte fields —
// and requires the decoded value to match (NaN compared by bits) and to
// re-encode to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := record{
		U: math.MaxUint64, I: math.MinInt64, F: math.NaN(), B: true, S: "ß\x00", Bin: []byte{0, 1},
		List: []record{
			{I: -1, F: math.Inf(1)},
			{I: math.MaxInt64, F: math.Inf(-1), S: "x"},
			{F: negZero, Bin: []byte{9}, List: []record{{U: 300}}},
		},
	}
	frame := recordRPC.EncodeRequest(in)
	out, err := recordRPC.DecodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if again := recordRPC.EncodeRequest(out); !bytes.Equal(again, frame) {
		t.Fatalf("re-encoding differs:\n% x\n% x", again, frame)
	}
	if math.Float64bits(out.F) != math.Float64bits(in.F) || math.Float64bits(out.List[2].F) != math.Float64bits(negZero) {
		t.Fatalf("float bits changed: %v, %v", out.F, out.List[2].F)
	}
	out.F, in.F = 0, 0
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	// Decoded byte fields are capacity-clipped windows of one slab:
	// appending to one must not overwrite the next.
	_ = append(out.Bin, 0xEE)
	if out.List[2].Bin[0] != 9 {
		t.Fatal("appending to one byte field overwrote another")
	}
	// The decoded value owns its memory: scribbling over the frame
	// leaves it intact.
	for i := range frame {
		frame[i] = 0xAA
	}
	if out.S != "ß\x00" || out.Bin[1] != 1 || out.List[1].S != "x" {
		t.Fatalf("decoded value aliases the frame: %+v", out)
	}
}

// TestFrameDecodeAllocatesNothing: the Decoder a codec reads through is
// pooled, so a frame with no strings, bytes or counts decodes without a
// single allocation.
func TestFrameDecodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under -race")
	}
	sum := addRPC.EncodeRequest([2]int64{3, -4})
	flat := recordRPC.EncodeRequest(record{U: 1, I: -1, F: 2.5, B: true})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := addRPC.DecodeRequest(sum); err != nil {
			t.Fatal(err)
		}
		if _, err := recordRPC.DecodeRequest(flat); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding two flat frames made %.0f allocations, want 0", allocs)
	}
}

// TestFrameRejectsMalformed feeds the decoder every malformation its
// strictness promises to catch; each must fail with errFrame.
func TestFrameRejectsMalformed(t *testing.T) {
	valid := recordRPC.EncodeRequest(record{S: "ab", Bin: []byte{1}, List: []record{{}}})
	// valid is: version, S=2, B=1, body (U I F×8 B S=2 Bin=1 count=1, one
	// empty record), "ab", 0x01.
	mut := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	body := 3 // offset of the body
	cases := map[string][]byte{
		"empty":              {},
		"version":            mut(func(b []byte) []byte { b[0] = 2; return b }),
		"non-canonical len":  {frameVersion, 0x80, 0x00, 0},
		"sections too long":  mut(func(b []byte) []byte { b[1] = 100; return b }),
		"truncated":          valid[:len(valid)-4],
		"trailing body":      mut(func(b []byte) []byte { return append(b[:len(b)-3], append([]byte{0}, b[len(b)-3:]...)...) }),
		"unread strings":     mut(func(b []byte) []byte { b[1] = 3; return append(b[:len(b)-1], 'c', b[len(b)-1]) }),
		"bool 2":             mut(func(b []byte) []byte { b[body+10] = 2; return b }),
		"non-canonical uint": mut(func(b []byte) []byte { return append(append(b[:body:body], 0x80, 0x00), b[body+1:]...) }),
		"count above limit":  mut(func(b []byte) []byte { b[body+13] = recordLimit + 1; return b }),
		"count beyond bytes": mut(func(b []byte) []byte { b[body+13] = 2; return b }),
	}
	if _, err := recordRPC.DecodeRequest(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for name, frame := range cases {
		if _, err := recordRPC.DecodeRequest(frame); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", name, err)
		}
	}
}

// TestFrameLyingCountAllocatesNothing claims a huge element count with
// a few bytes behind it: the decoder must reject it before allocating
// the elements, so a failed decode costs bytes on the order of the
// frame, not of the claim.
func TestFrameLyingCountAllocatesNothing(t *testing.T) {
	m := recordRPC
	m.Limit = 1 << 30
	frame := m.EncodeRequest(record{})
	frame = append(frame[:len(frame)-1], 0x80, 0x80, 0x40) // count 1<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		if _, err := m.DecodeRequest(frame); err == nil {
			t.Fatal("lying count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Fatalf("a rejected count of 1<<20 allocated %d bytes per decode", per)
	}
}
