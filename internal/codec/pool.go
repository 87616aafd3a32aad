package codec

import "sync"

// Encoder and decoder pooling. The data plane encodes one payload per RPC;
// allocating a fresh Encoder (and growing its buffer from nil) on every call
// makes serialization a per-call GC treadmill. GetEncoder/PutEncoder recycle
// encoders and their buffers so a steady-state call encodes with zero heap
// allocations; Parse does the same for decoders.
//
// Ownership rule: a pooled encoder's buffer (everything returned by Data
// and Framed) belongs to the holder until PutEncoder/Release, at which
// point every slice derived from it is invalid. Callers that retain
// encoded bytes past that point must copy them first.

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// maxPooledBuf caps the buffer capacity retained by the pool so one huge
// payload does not pin a large allocation for the life of the process.
const maxPooledBuf = 64 << 10

// GetEncoder returns an empty encoder from the pool. Pass it to PutEncoder
// (or call Release) when the encoded bytes are no longer referenced.
func GetEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// PutEncoder resets e and returns it to the pool. The caller must not use
// e, or any slice obtained from its Data or Framed, afterwards. Oversized
// buffers are dropped rather than pooled.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	e.Reset()
	encoderPool.Put(e)
}

// Release returns the encoder to the pool. It exists so a pooled encoder
// can travel as an opaque buffer owner (e.g. rpc.BufOwner) through layers
// that know nothing about the codec.
func (e *Encoder) Release() { PutEncoder(e) }

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// Parse decodes data, a complete message, into u with u's own
// WeaverUnmarshal method, returning an error for malformed input or
// trailing bytes. It is the entry point for generated codecs: the decoder
// comes from a pool, so a call allocates only what u's fields need.
func Parse(data []byte, u Unmarshaler) (err error) {
	d := decoderPool.Get().(*Decoder)
	d.Reset(data)
	defer func() {
		d.Reset(nil)
		decoderPool.Put(d)
	}()
	defer Catch(&err)
	u.WeaverUnmarshal(d)
	if !d.Done() {
		return &DecodeError{Offset: d.Offset(), What: "trailing bytes"}
	}
	return nil
}
