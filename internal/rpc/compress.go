package rpc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// DefaultCompressThreshold is the payload size above which compression is
// attempted when enabled. Small payloads are never compressed: the CPU cost
// exceeds the byte savings.
const DefaultCompressThreshold = 4 << 10

// Compressed payload wire format: a 4-byte little-endian uncompressed
// length followed by the raw flate stream. Both ends of a connection run
// the same binary (see the package comment), so the format needs no
// versioning. Carrying the inflated size lets decompress allocate its
// output in one exact-size slice instead of growing through io.ReadAll.
const compressPrefix = 4

// maxInflateRatio is deflate's largest possible expansion: a 258-byte
// match coded in 2 bits. A declared length beyond it times the stream size
// is a lie, rejected before it is allocated.
const maxInflateRatio = 1032

// A compressor pairs a pooled flate writer with its reusable output
// buffer. compress hands the caller the compressor whose buffer backs the
// returned payload; the caller releases it once the bytes are on the wire.
type compressor struct {
	fw  *flate.Writer
	out sliceWriter
}

// sliceWriter is an allocation-free io.Writer over a reusable byte slice.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var compressors = sync.Pool{
	New: func() any {
		fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return &compressor{fw: fw}
	},
}

// release returns the compressor (and its output buffer) to the pool. The
// payload previously returned by compress is invalid afterwards.
func (c *compressor) release() {
	if cap(c.out.b) > maxPooledFrame {
		c.out.b = nil
	}
	compressors.Put(c)
}

// An inflater pairs a pooled flate reader with its reusable source reader.
type inflater struct {
	fr  io.ReadCloser
	src bytes.Reader
}

var inflaters = sync.Pool{
	New: func() any {
		inf := new(inflater)
		inf.fr = flate.NewReader(&inf.src)
		return inf
	},
}

// compress flate-compresses p into a pooled buffer behind headroom bytes
// of scratch, prefixed with the uncompressed length, so the result goes
// out in place exactly like an uncompressed framed buffer. It returns
// (nil, nil, false) when compression would not shrink the payload, in
// which case the caller sends it raw. On success the returned buffer
// aliases the compressor's: the caller must call release once the bytes
// are written (the flusher blocks until then, so release-after-write is
// safe).
func compress(p []byte, headroom int) ([]byte, *compressor, bool) {
	c := compressors.Get().(*compressor)
	n := headroom + compressPrefix
	c.out.b = slices.Grow(c.out.b[:0], n)[:n]
	binary.LittleEndian.PutUint32(c.out.b[headroom:], uint32(len(p)))
	c.fw.Reset(&c.out)
	if _, err := c.fw.Write(p); err != nil {
		c.release()
		return nil, nil, false
	}
	if err := c.fw.Close(); err != nil {
		c.release()
		return nil, nil, false
	}
	if len(c.out.b)-headroom >= len(p) {
		c.release()
		return nil, nil, false
	}
	return c.out.b, c, true
}

// decompress inflates a payload produced by compress into a fresh
// exact-size slice.
func decompress(p []byte) ([]byte, error) {
	if len(p) < compressPrefix {
		return nil, fmt.Errorf("rpc: compressed payload of %d bytes lacks length prefix", len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxFrameSize {
		return nil, fmt.Errorf("rpc: decompressed payload exceeds frame limit")
	}
	if stream := uint64(len(p) - compressPrefix); uint64(n) > maxInflateRatio*stream {
		return nil, fmt.Errorf("rpc: declared length %d exceeds deflate's expansion of %d bytes", n, stream)
	}
	inf := inflaters.Get().(*inflater)
	defer inflaters.Put(inf)
	inf.src.Reset(p[compressPrefix:])
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, fmt.Errorf("rpc: resetting inflater: %w", err)
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(inf.fr, out); err != nil {
		return nil, fmt.Errorf("rpc: decompressing payload: %w", err)
	}
	// The stream must end exactly at the declared length; trailing garbage
	// or a short stream means corruption.
	var extra [1]byte
	if m, _ := inf.fr.Read(extra[:]); m != 0 {
		return nil, fmt.Errorf("rpc: compressed payload longer than declared length")
	}
	return out, nil
}
