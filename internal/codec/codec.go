// Package codec implements the custom serialization format used on the
// weaver data plane.
//
// The format is sequential and carries no field numbers and no type
// information: values are written in a fixed order agreed upon by encoder
// and decoder in advance. This is safe because application rollouts are
// atomic — every encoder and decoder in a deployment runs the exact same
// binary, so both sides always agree on the set of fields and the order in
// which they are encoded (paper §6.1).
//
// Wire rules:
//
//   - bool:          one byte, 0 or 1
//   - uint8/int8:    one byte
//   - uint16..64:    fixed-width little-endian
//   - int16..64:     fixed-width little-endian two's complement
//   - float32/64:    IEEE 754 bits, little-endian
//   - len/count:     unsigned varint (LEB128)
//   - string/[]byte: varint length + raw bytes
//   - slice:         varint count + elements
//   - map:           varint count + key/value pairs in sorted key order
//   - struct:        fields in declaration order
//   - pointer:       one presence byte (0 = nil) + value
//
// Maps are encoded in sorted key order so that encoding is deterministic,
// which the routing layer relies on for request hashing and tests rely on
// for byte-for-byte comparisons.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder serializes values into an internal buffer using the weaver wire
// format. The zero value is ready to use. Encoders may be reused via Reset,
// or recycled across calls with GetEncoder/PutEncoder.
type Encoder struct {
	buf  []byte
	head int // bytes of transport headroom reserved by Reserve
}

// NewEncoder returns an encoder with capacity preallocated for hint bytes.
func NewEncoder(hint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, hint)}
}

// Reset discards the encoder's contents, including any reserved headroom,
// retaining the buffer for reuse.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.head = 0
}

// Reserve sets aside n bytes of scratch headroom at the front of the
// buffer, before any encoded data. The transport uses this to prepend
// framing (length prefix, frame type, request header) in place instead of
// copying the payload into a fresh buffer. Reserve must be called before
// any encoding method; it panics on a non-empty encoder. The headroom
// contents are uninitialized scratch owned by whoever holds Framed().
func (e *Encoder) Reserve(n int) {
	if len(e.buf) != 0 {
		panic("codec: Reserve called on a non-empty encoder")
	}
	if cap(e.buf) < n {
		e.buf = make([]byte, n, n+256)
	} else {
		e.buf = e.buf[:n]
	}
	e.head = n
}

// Data returns the encoded bytes, excluding any reserved headroom. The
// returned slice aliases the encoder's internal buffer and is invalidated
// by the next call to Reset or any encoding method.
func (e *Encoder) Data() []byte { return e.buf[e.head:] }

// Framed returns the reserved headroom followed by the encoded bytes as
// one contiguous slice. Like Data, the result aliases the internal buffer.
func (e *Encoder) Framed() []byte { return e.buf }

// Len reports the number of encoded bytes, excluding headroom.
func (e *Encoder) Len() int { return len(e.buf) - e.head }

// Bool encodes a bool as a single byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uint8 encodes an unsigned 8-bit integer.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Int8 encodes a signed 8-bit integer.
func (e *Encoder) Int8(v int8) { e.buf = append(e.buf, uint8(v)) }

// Uint16 encodes an unsigned 16-bit integer, little-endian.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// Int16 encodes a signed 16-bit integer.
func (e *Encoder) Int16(v int16) { e.Uint16(uint16(v)) }

// Uint32 encodes an unsigned 32-bit integer, little-endian.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a signed 32-bit integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes an unsigned 64-bit integer, little-endian.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a signed 64-bit integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Int encodes an int as a 64-bit value.
func (e *Encoder) Int(v int) { e.Uint64(uint64(int64(v))) }

// Uint encodes a uint as a 64-bit value.
func (e *Encoder) Uint(v uint) { e.Uint64(uint64(v)) }

// Float32 encodes an IEEE 754 single-precision float.
func (e *Encoder) Float32(v float32) { e.Uint32(math.Float32bits(v)) }

// Float64 encodes an IEEE 754 double-precision float.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Complex64 encodes a complex64 as two float32s.
func (e *Encoder) Complex64(v complex64) {
	e.Float32(real(v))
	e.Float32(imag(v))
}

// Complex128 encodes a complex128 as two float64s.
func (e *Encoder) Complex128(v complex128) {
	e.Float64(real(v))
	e.Float64(imag(v))
}

// Varint encodes an unsigned integer using LEB128 variable-length encoding.
// It is used for lengths and counts, which are usually small.
func (e *Encoder) Varint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Len64 encodes a non-negative length. It panics if v is negative, which
// indicates a bug in the caller rather than bad input data.
func (e *Encoder) Len64(v int) {
	if v < 0 {
		panic(fmt.Sprintf("codec: negative length %d", v))
	}
	e.Varint(uint64(v))
}

// String encodes a string as a varint length followed by raw bytes.
func (e *Encoder) String(v string) {
	e.Len64(len(v))
	e.buf = append(e.buf, v...)
}

// Bytes encodes a byte slice like a string. A nil slice is encoded
// identically to an empty one.
func (e *Encoder) Bytes(v []byte) {
	e.Len64(len(v))
	e.buf = append(e.buf, v...)
}

// Present encodes a presence marker for pointers and other optional values.
func (e *Encoder) Present(p bool) { e.Bool(p) }

// Raw appends pre-encoded bytes without a length prefix. It is used by
// generated code that has already framed the payload.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Error encodes an error for transmission. Errors cross the wire as strings:
// a presence byte followed by the message. This matches how the paper's
// prototype handles application errors returned from component methods.
func (e *Encoder) Error(err error) {
	if err == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.String(err.Error())
}

// A DecodeError describes malformed or truncated input encountered while
// decoding.
type DecodeError struct {
	Offset int    // byte offset at which decoding failed
	What   string // description of the expected datum
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("codec: decode %s at offset %d: truncated or malformed input", e.What, e.Offset)
}

// Decoder deserializes values from a byte slice produced by an Encoder.
// Decoding methods panic with *DecodeError on malformed input; use Catch to
// convert the panic into an error at an API boundary.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from data. The decoder does not copy
// data; the caller must not mutate it during decoding.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{buf: data}
}

// Reset repoints the decoder at data and rewinds it.
func (d *Decoder) Reset(data []byte) {
	d.buf = data
	d.off = 0
}

// Remaining reports the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done reports whether the decoder has consumed all input.
func (d *Decoder) Done() bool { return d.off == len(d.buf) }

// Offset reports the current read offset.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) fail(what string) {
	panic(&DecodeError{Offset: d.off, What: what})
}

func (d *Decoder) take(n int, what string) []byte {
	if d.Remaining() < n {
		d.fail(what)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Bool decodes a bool.
func (d *Decoder) Bool() bool {
	b := d.take(1, "bool")[0]
	if b > 1 {
		d.fail("bool")
	}
	return b == 1
}

// Uint8 decodes an unsigned 8-bit integer.
func (d *Decoder) Uint8() uint8 { return d.take(1, "uint8")[0] }

// Int8 decodes a signed 8-bit integer.
func (d *Decoder) Int8() int8 { return int8(d.Uint8()) }

// Uint16 decodes an unsigned 16-bit integer.
func (d *Decoder) Uint16() uint16 {
	return binary.LittleEndian.Uint16(d.take(2, "uint16"))
}

// Int16 decodes a signed 16-bit integer.
func (d *Decoder) Int16() int16 { return int16(d.Uint16()) }

// Uint32 decodes an unsigned 32-bit integer.
func (d *Decoder) Uint32() uint32 {
	return binary.LittleEndian.Uint32(d.take(4, "uint32"))
}

// Int32 decodes a signed 32-bit integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes an unsigned 64-bit integer.
func (d *Decoder) Uint64() uint64 {
	return binary.LittleEndian.Uint64(d.take(8, "uint64"))
}

// Int64 decodes a signed 64-bit integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int decodes an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Uint decodes a uint.
func (d *Decoder) Uint() uint { return uint(d.Uint64()) }

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Complex64 decodes a complex64.
func (d *Decoder) Complex64() complex64 {
	r := d.Float32()
	i := d.Float32()
	return complex(r, i)
}

// Complex128 decodes a complex128.
func (d *Decoder) Complex128() complex128 {
	r := d.Float64()
	i := d.Float64()
	return complex(r, i)
}

// Varint decodes an unsigned LEB128 varint.
func (d *Decoder) Varint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
	}
	d.off += n
	return v
}

// Len64 decodes a length and validates that it cannot exceed the remaining
// input, defending against maliciously large allocations.
func (d *Decoder) Len64(what string) int {
	v := d.Varint()
	if v > uint64(d.Remaining()) {
		d.fail(what + " length")
	}
	return int(v)
}

// Count decodes the element count of a slice or map whose elements occupy
// no bytes on the wire, so the remaining input cannot bound it; the count
// must only fit in an int. Callers allocate from it only when the elements
// also occupy no memory (e.g. []struct{}).
func (d *Decoder) Count() int {
	v := d.Varint()
	if v > math.MaxInt {
		d.fail("count")
	}
	return int(v)
}

// String decodes a string. Short strings come from the intern table
// (Intern), so a value decoded before usually costs no allocation; the
// result never aliases the decoder's input.
func (d *Decoder) String() string {
	n := d.Len64("string")
	return Intern(d.take(n, "string"))
}

// Bytes decodes a byte slice. The result is a copy and does not alias the
// decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.Len64("bytes")
	b := d.take(n, "bytes")
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Present decodes a presence marker.
func (d *Decoder) Present() bool { return d.Bool() }

// Raw consumes and returns the next n bytes without copying.
func (d *Decoder) Raw(n int) []byte { return d.take(n, "raw") }

// Error decodes an error encoded by Encoder.Error. A decoded non-nil error
// has type *RemoteError.
func (d *Decoder) Error() error {
	if !d.Bool() {
		return nil
	}
	return &RemoteError{Message: d.String()}
}

// RemoteError is an application error returned by a remote component method.
// Only the message survives the trip across the wire.
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return e.Message }

// Catch recovers a *DecodeError panic raised by decoder methods and stores
// it in *err. Use it in a defer at the boundary where decoding begins:
//
//	func unmarshal(data []byte) (err error) {
//		d := codec.NewDecoder(data)
//		defer codec.Catch(&err)
//		...
//	}
//
// Panics of other types propagate unchanged.
func Catch(err *error) {
	switch r := recover().(type) {
	case nil:
	case *DecodeError:
		*err = r
	default:
		panic(r)
	}
}
