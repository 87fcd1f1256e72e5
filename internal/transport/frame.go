package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// This file is the frame codec every Method in the RPC table encodes
// with. A frame is hand-encoded, so no side of an RPC rebuilds a type
// decoder per message.
//
// Layout (all integers are canonical unsigned varints unless noted):
//
//	byte    version (frameVersion)
//	uvarint S, the length of the string section
//	uvarint B, the length of the byte section
//	body    the method's fields, in declaration order:
//	          unsigned integers and counts: uvarint
//	          signed integers: zig-zag uvarint
//	          floats: 8 bytes, IEEE-754 bits, big-endian
//	          bools: one byte, 0 or 1
//	          strings and byte fields: uvarint length; the content
//	          follows in the string or byte section
//	S bytes the content of every string field, in field order
//	B bytes the content of every byte field, in field order
//
// Keeping string and byte contents out of line lets the decoder give a
// decoded value its own memory with at most two allocations per frame —
// one string copy of the string section, one slab copy of the byte
// section — that hold exactly the content and nothing else, so a value a
// service stores never pins the (pooled, recycled) transport buffer nor
// the rest of the frame.
//
// Decoding is strict, so every accepted frame re-encodes to the same
// bytes: non-minimal varints, bools other than 0 or 1, counts above the
// method's limit or beyond the body bytes left, and unread bytes in any
// section are all errors.

// frameVersion is the version byte of every method frame; decoders
// reject anything else.
const frameVersion = 1

// Encoder appends one frame's fields. Method codecs receive one; it is
// pooled, so a codec must not retain it.
type Encoder struct {
	body, strs, bins []byte
}

// Uint appends an unsigned integer (or a count).
func (e *Encoder) Uint(v uint64) { e.body = binary.AppendUvarint(e.body, v) }

// Int appends a signed integer as a zig-zag varint, so small negative
// values stay short.
func (e *Encoder) Int(v int64) { e.Uint(uint64(v<<1) ^ uint64(v>>63)) }

// Float appends the IEEE-754 bits of v; NaN payloads and signed zeros
// survive the round trip.
func (e *Encoder) Float(v float64) {
	e.body = binary.BigEndian.AppendUint64(e.body, math.Float64bits(v))
}

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.body = append(e.body, b)
}

// String appends a string field.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.strs = append(e.strs, s...)
}

// Bytes appends a byte field. Nil and empty encode alike (and decode as
// nil).
func (e *Encoder) Bytes(b []byte) {
	e.Uint(uint64(len(b)))
	e.bins = append(e.bins, b...)
}

// frame assembles the encoded fields into one exact-size frame.
func (e *Encoder) frame() []byte {
	out := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(e.body)+len(e.strs)+len(e.bins))
	out = append(out, frameVersion)
	out = binary.AppendUvarint(out, uint64(len(e.strs)))
	out = binary.AppendUvarint(out, uint64(len(e.bins)))
	out = append(out, e.body...)
	out = append(out, e.strs...)
	return append(out, e.bins...)
}

// maxPooledEncoder is the largest buffer an Encoder keeps between
// frames; a rare huge frame (a handoff push) does not pin its scratch.
const maxPooledEncoder = 64 << 10

var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// encodeFrame runs a method codec on a pooled Encoder and returns the
// finished frame. A nil codec encodes an empty body.
func encodeFrame[T any](enc func(*Encoder, T), v T) []byte {
	e := encoders.Get().(*Encoder)
	if enc != nil {
		enc(e, v)
	}
	out := e.frame()
	for _, b := range []*[]byte{&e.body, &e.strs, &e.bins} {
		if cap(*b) > maxPooledEncoder {
			*b = nil
		} else {
			*b = (*b)[:0]
		}
	}
	encoders.Put(e)
	return out
}

// Decoder reads one frame's fields in the order they were encoded. The
// first malformed field sets a sticky error; every later read returns a
// zero value and every later Count returns 0, so a codec can decode
// straight through and the caller checks the error once. Method codecs
// receive one; it is pooled, so a codec must not retain it.
type Decoder struct {
	body  []byte
	limit uint64
	err   error

	rawStrs, rawBins []byte // the sections as received; never retained
	strs             string // copy of rawStrs, taken by the first String
	bins             []byte // copy of rawBins, taken by the first Bytes
	soff, boff       int
}

// errFrame is wrapped by every frame decoding error.
var errFrame = errors.New("transport: malformed frame")

// Fail records a decoding error (the first one sticks) — for codecs that
// check a property of the values themselves, such as their order.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errFrame}, args...)...)
	}
}

// Uint reads an unsigned integer.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := canonicalUvarint(d.body)
	if n <= 0 {
		d.Fail("malformed varint")
		return 0
	}
	d.body = d.body[n:]
	return v
}

// Int reads a zig-zag signed integer.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float reads 8 bytes of IEEE-754 bits.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.body) < 8 {
		d.Fail("float truncated")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.body))
	d.body = d.body[8:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.body) < 1 || d.body[0] > 1 {
		d.Fail("bool malformed")
		return false
	}
	v := d.body[0] == 1
	d.body = d.body[1:]
	return v
}

// String reads a string field. Every string of a frame is a substring
// of one copy of the frame's string section.
func (d *Decoder) String() string {
	l := d.Uint()
	if d.err != nil || l == 0 {
		return ""
	}
	if l > uint64(len(d.rawStrs)-d.soff) {
		d.Fail("string of %d bytes, %d left", l, len(d.rawStrs)-d.soff)
		return ""
	}
	if d.strs == "" {
		d.strs = string(d.rawStrs)
	}
	s := d.strs[d.soff : d.soff+int(l)]
	d.soff += int(l)
	return s
}

// Bytes reads a byte field; empty decodes as nil. Every byte field of a
// frame is a capacity-clipped window of one copy of the frame's byte
// section, so appending to one cannot overwrite another.
func (d *Decoder) Bytes() []byte {
	l := d.Uint()
	if d.err != nil || l == 0 {
		return nil
	}
	if l > uint64(len(d.rawBins)-d.boff) {
		d.Fail("byte field of %d bytes, %d left", l, len(d.rawBins)-d.boff)
		return nil
	}
	if d.bins == nil {
		d.bins = append([]byte(nil), d.rawBins...)
	}
	end := d.boff + int(l)
	b := d.bins[d.boff:end:end]
	d.boff = end
	return b
}

// Count reads an element count and checks it before the caller
// allocates anything: above the method's limit, or more elements than
// the body bytes left can hold at minBytes each, is an error (and 0).
func (d *Decoder) Count(minBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > d.limit {
		d.Fail("count %d above the limit %d", n, d.limit)
		return 0
	}
	if n*uint64(minBytes) > uint64(len(d.body)) {
		d.Fail("count %d needs %d bytes, %d left", n, n*uint64(minBytes), len(d.body))
		return 0
	}
	return int(n)
}

// decodeFrame parses a frame with a method codec: header first, then the
// codec, then the check that every section was consumed exactly. A nil
// codec accepts only an empty body.
func decodeFrame[T any](data []byte, limit int, dec func(*Decoder) T) (T, error) {
	var v T
	d, err := newDecoder(data, limit)
	if err != nil {
		return v, err
	}
	if dec != nil {
		v = dec(d)
	}
	if err := d.release(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// newDecoder checks a frame's header and returns a pooled Decoder over
// its sections. The codec is a func value, so the Decoder it is handed
// escapes; pooling it keeps a frame's allocations to the value's own
// memory. The header and the checks in release live outside the generic
// decodeFrame to keep its stack frame small: on an in-process network a
// server decodes on its caller's goroutine, deep under the call, and a
// larger frame there made every forwarding goroutine grow its stack
// once more.
func newDecoder(data []byte, limit int) (*Decoder, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: empty", errFrame)
	}
	if data[0] != frameVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errFrame, data[0], frameVersion)
	}
	rest := data[1:]
	var sizes [2]uint64
	for i := range sizes {
		v, n := canonicalUvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: section length malformed", errFrame)
		}
		sizes[i] = v
		rest = rest[n:]
	}
	if sizes[0] > uint64(len(rest)) || sizes[1] > uint64(len(rest))-sizes[0] {
		return nil, fmt.Errorf("%w: sections of %d+%d bytes in %d", errFrame, sizes[0], sizes[1], len(rest))
	}
	bodyLen := len(rest) - int(sizes[0]) - int(sizes[1])
	d := decoders.Get().(*Decoder)
	d.body = rest[:bodyLen]
	d.limit = uint64(limit)
	d.rawStrs = rest[bodyLen : bodyLen+int(sizes[0])]
	d.rawBins = rest[bodyLen+int(sizes[0]):]
	return d, nil
}

// release returns the codec's first error, or an error if any section
// has bytes left unread, and puts the Decoder back in the pool — reset,
// so that it pins neither the frame nor the value's strings and bytes.
func (d *Decoder) release() error {
	err := d.err
	switch {
	case err != nil:
	case len(d.body) != 0:
		err = fmt.Errorf("%w: %d trailing body bytes", errFrame, len(d.body))
	case d.soff != len(d.rawStrs) || d.boff != len(d.rawBins):
		err = fmt.Errorf("%w: %d string and %d byte-section bytes unread", errFrame,
			len(d.rawStrs)-d.soff, len(d.rawBins)-d.boff)
	}
	*d = Decoder{}
	decoders.Put(d)
	return err
}

var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// canonicalUvarint decodes an unsigned varint and additionally rejects
// non-minimal encodings (binary.Uvarint accepts them), so every value
// has exactly one wire form and a decoded frame re-encodes to the same
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
