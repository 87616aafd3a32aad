package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// readBufSize is the target capacity of a pooled receive buffer: one Read
// of this size drains every frame a busy peer has queued, and the pool
// keeps steady-state reads allocation-free. Frames larger than this get a
// dedicated buffer that is dropped instead of pooled.
const readBufSize = 64 << 10

// A readBuf is one pooled receive buffer shared by every frame sliced out
// of it. The frameReader holds one reference while it may still parse
// frames from the buffer; each frame handed out holds another until its
// consumer releases it. The buffer returns to the pool when the last
// reference drops, so frames from one batch can finish out of order and
// outlive the reader's move to the next buffer.
type readBuf struct {
	b    []byte
	refs atomic.Int32
}

var readBufPool = sync.Pool{New: func() any {
	return &readBuf{b: make([]byte, readBufSize)}
}}

func getReadBuf(size int) *readBuf {
	if size <= readBufSize {
		rb := readBufPool.Get().(*readBuf)
		rb.refs.Store(1)
		return rb
	}
	rb := &readBuf{b: make([]byte, size)}
	rb.refs.Store(1)
	return rb
}

func (rb *readBuf) retain() { rb.refs.Add(1) }

func (rb *readBuf) release() {
	if rb.refs.Add(-1) == 0 && cap(rb.b) == readBufSize {
		readBufPool.Put(rb)
	}
}

// A frameReader amortizes receive syscalls: instead of two ReadFulls per
// frame (length prefix, then body), it issues one large Read into a pooled
// readBuf and slices out every complete frame that arrived. Under
// concurrent callers the peer's write flusher coalesces many frames per
// segment, so one syscall commonly drains a whole batch — the receive-side
// mirror of the connFlusher's vectored writes.
//
// Frames returned by next alias the current readBuf and carry a reference
// to it; the caller must release the readBuf when done with the payload.
// frameReader itself is single-goroutine (one per connection read loop).
type frameReader struct {
	r   io.Reader
	clk clock.Clock
	// hist records frames sliced per Read syscall (including zero-frame
	// reads that only completed a partial frame).
	hist *metrics.Histogram
	// stall, when non-nil and positive, injects a pause before each Read —
	// the chaos stall-read fault (a slow-draining peer).
	stall *atomic.Int64
	// batch, when non-nil, is the conn flusher's readBatch: set while more
	// than one frame has been sliced from the last Read, so the writes of
	// the callers or workers those frames ready expect company.
	batch *atomic.Bool

	cur     *readBuf
	pos     int // parse offset into cur.b
	end     int // valid bytes in cur.b
	frames  int
	started bool // a Read has happened; frames counts since the last one
	err     error
}

func newFrameReader(r io.Reader, hist *metrics.Histogram, stall *atomic.Int64, clk clock.Clock) *frameReader {
	return &frameReader{r: r, clk: clock.Or(clk), hist: hist, stall: stall}
}

// next returns the next frame payload and the readBuf backing it, blocking
// to Read when no complete frame is buffered. Frames buffered before an
// I/O error are delivered before the error surfaces. The returned payload
// aliases rb; the caller owns one reference and must rb.release() when the
// payload is dead.
func (fr *frameReader) next() ([]byte, *readBuf, error) {
	for {
		need := 0
		if avail := fr.end - fr.pos; avail >= 4 {
			n := int(binary.LittleEndian.Uint32(fr.cur.b[fr.pos:]))
			if n > maxFrameSize {
				fr.err = fmt.Errorf("rpc: frame length %d exceeds limit", n)
				return nil, nil, fr.err
			}
			if avail >= 4+n {
				payload := fr.cur.b[fr.pos+4 : fr.pos+4+n : fr.pos+4+n]
				fr.pos += 4 + n
				fr.frames++
				if fr.batch != nil && fr.frames <= 2 {
					fr.batch.Store(fr.frames > 1)
				}
				fr.cur.retain()
				return payload, fr.cur, nil
			}
			need = 4 + n
		}
		if fr.err != nil {
			if fr.err == io.EOF && fr.end > fr.pos {
				// The connection died mid-frame: the bytes left over after
				// draining every complete frame are a truncation.
				fr.err = io.ErrUnexpectedEOF
			}
			return nil, nil, fr.err
		}
		if err := fr.fill(need); err != nil {
			// Latch the error but keep parsing: a Read may return complete
			// frames together with EOF, and they must drain first.
			fr.err = err
		}
	}
}

// fill performs one Read into the current buffer, first making room: a
// sole-owner buffer is compacted in place, while a buffer still referenced
// by outstanding frames is replaced with a fresh one (the partial tail is
// copied over — a few header bytes, not payloads). need, when non-zero, is
// the total size of the partially-buffered frame; oversized frames get a
// dedicated exact-size buffer.
func (fr *frameReader) fill(need int) error {
	if fr.hist != nil && fr.started {
		fr.hist.Put(float64(fr.frames))
	}
	fr.started = true
	fr.frames = 0

	if fr.stall != nil {
		if d := fr.stall.Load(); d > 0 {
			fr.clk.Sleep(time.Duration(d))
		}
	}

	if fr.cur == nil {
		fr.cur = getReadBuf(readBufSize)
		fr.pos, fr.end = 0, 0
	}
	tail := fr.end - fr.pos
	switch {
	case need > cap(fr.cur.b):
		// Frame bigger than the pooled size: move the partial bytes into a
		// dedicated buffer that fits the whole frame.
		big := getReadBuf(need)
		copy(big.b, fr.cur.b[fr.pos:fr.end])
		fr.cur.release()
		fr.cur = big
		fr.pos, fr.end = 0, tail
	case fr.end == cap(fr.cur.b) || fr.pos == fr.end:
		// Out of room (or cheaply resettable): reclaim the consumed prefix.
		if fr.cur.refs.Load() == 1 {
			// Sole owner — no outstanding frame aliases the buffer, so the
			// partial tail can slide to the front in place.
			copy(fr.cur.b, fr.cur.b[fr.pos:fr.end])
		} else {
			fresh := getReadBuf(readBufSize)
			copy(fresh.b, fr.cur.b[fr.pos:fr.end])
			fr.cur.release()
			fr.cur = fresh
		}
		fr.pos, fr.end = 0, tail
	}

	n, err := fr.r.Read(fr.cur.b[fr.end:cap(fr.cur.b)])
	fr.end += n
	return err
}

// close records the final batch and releases the reader's own reference
// to its current buffer. Outstanding frames keep theirs; the buffer is
// pooled when the last one is released.
func (fr *frameReader) close() {
	if fr.hist != nil && fr.started && fr.frames > 0 {
		fr.hist.Put(float64(fr.frames))
	}
	if fr.cur != nil {
		fr.cur.release()
		fr.cur = nil
	}
}
