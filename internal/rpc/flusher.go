package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// maxFlushBacklog bounds the bytes a connection may hold queued behind an
// in-flight flush before further writers block. The cap turns a slow or
// stalled socket into backpressure on the writers themselves: on the server
// those writers are handler goroutines still holding their admission slot,
// so a congested connection feeds straight back into MaxInflight instead of
// buffering unbounded response bytes in memory.
const maxFlushBacklog = 1 << 20

// flushBatchBuckets are the histogram bounds for frames-per-flush: small
// powers of two, since a batch can never exceed the number of concurrent
// writers on the connection.
var flushBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// A flushEntry is one frame queued for write, starting with its 4-byte
// length prefix. fb, when non-nil, is the pooled scratch backing frame and
// is recycled once the frame is on the wire (or abandoned on error).
type flushEntry struct {
	frame []byte
	fb    *frameBuf
}

// A connFlusher coalesces concurrent frame writes on one connection into
// vectored batches — group-commit for the data plane. The first writer to
// arrive while the connection is idle becomes the flusher and writes its
// frame immediately (a lone call pays no added latency). Writers that
// arrive while a flush is in flight enqueue their frame and wait; the
// flusher drains the whole accumulated queue with a single
// net.Buffers.WriteTo (writev on TCP), so N concurrent callers cost one
// syscall instead of N.
//
// Every write blocks until its frame is on the wire or the connection has
// failed, which preserves the data plane's buffer-ownership contract:
// callers may recycle pooled frames the moment write returns.
//
// Both ends of a connection write through the same two entry points:
// writeFramed for a frame built in place in the caller's buffer (requests
// and result responses) and writeControl for the small frames assembled
// in pooled scratch (cancel, ping, status-only and error responses). On
// the server the writers are handler goroutines still holding their
// admission slot, so the backlog cap turns a congested connection into
// backpressure on MaxInflight.
type connFlusher struct {
	w     io.Writer
	tx    *metrics.Counter   // payload bytes (prefix excluded), successful writes only
	hist  *metrics.Histogram // frames per flush batch
	stall *atomic.Int64      // injected pre-flush stall (chaos); nil on clients
	clk   clock.Clock
	// onFail, when set, runs in every writer whose frame the failed
	// connection dropped; clients use it to mark the conn dead.
	onFail func(error)

	// readBatch is set while the conn's frameReader has sliced more than
	// one frame from its last Read (frameReader.batch points here).
	readBatch atomic.Bool

	mu      sync.Mutex
	flushed sync.Cond // doneSeq advanced or err set
	space   sync.Cond // pendingBytes dropped below the backlog cap
	queue   []flushEntry
	spare   []flushEntry // recycled backing array for queue
	bufs    [][]byte     // reusable writev scratch
	// nb is the writev header over bufs. It lives in the flusher because
	// net.Buffers.WriteTo takes a pointer that escapes: a local header
	// would cost an allocation per multi-frame flush.
	nb        net.Buffers
	enqSeq    uint64 // sequence of the last enqueued frame
	doneSeq   uint64 // sequence of the last frame on the wire
	pending   int    // bytes queued but not yet written
	lastDepth int    // frames in the most recently committed batch
	flushing  bool
	err       error // terminal; set on first write failure
}

func newConnFlusher(w io.Writer, tx *metrics.Counter, hist *metrics.Histogram, stall *atomic.Int64, clk clock.Clock) *connFlusher {
	f := &connFlusher{w: w, tx: tx, hist: hist, stall: stall, clk: clock.Or(clk)}
	f.flushed.L = &f.mu
	f.space.L = &f.mu
	return f
}

// writeFramed writes a frame assembled in place: frame starts with 4
// bytes of length scratch, which writeFramed fills, followed by the frame
// type and body. frame stays owned by the flusher until the call returns.
func (f *connFlusher) writeFramed(frame []byte) error {
	n := len(frame) - 4
	if n > maxFrameSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return f.write(frame, nil)
}

// writeControl assembles a small frame — type byte, 8-byte id, then
// trailer — in pooled scratch and writes it. Cancel and ping frames carry
// no trailer; a response carries its status byte, followed by the message
// for an error.
func (f *connFlusher) writeControl(typ byte, id uint64, trailer ...byte) error {
	n := 1 + 8 + len(trailer)
	if n > maxFrameSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	fb := getFrame()
	buf := binary.LittleEndian.AppendUint32(fb.b[:0], uint32(n))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	fb.b = append(buf, trailer...)
	return f.write(fb.b, fb)
}

// write queues one frame and blocks until it has been written (nil) or the
// connection has failed (the write error). frame must start with the
// filled 4-byte length prefix; fb, when non-nil, transfers to the flusher
// and is recycled after the flush. On error the flusher has already
// dropped every reference to the frame, so caller-owned buffers are safely
// reusable.
func (f *connFlusher) write(frame []byte, fb *frameBuf) error {
	f.mu.Lock()
	// Backpressure: past the backlog cap, block until the in-flight flush
	// makes room. The cap only binds while a flush is actually running —
	// otherwise this writer is about to become the flusher itself.
	for f.pending >= maxFlushBacklog && f.flushing && f.err == nil {
		f.space.Wait()
	}
	if f.err != nil {
		err := f.err
		f.mu.Unlock()
		if fb != nil {
			putFrame(fb)
		}
		return err
	}
	f.enqSeq++
	seq := f.enqSeq
	f.queue = append(f.queue, flushEntry{frame: frame, fb: fb})
	f.pending += len(frame)

	if !f.flushing {
		f.flushing = true
		// Adaptive group commit: when the connection has shown concurrency,
		// yield once before committing so writers that are runnable but not
		// yet enqueued can pile in — a quick socket write never releases the
		// P, so without the yield a few-core scheduler would commit every
		// flush one frame deep. A lone caller pays nothing: it skips the
		// yield and flushes immediately.
		if f.expectBatch() {
			f.mu.Unlock()
			runtime.Gosched()
			f.mu.Lock()
		}
		f.runFlush()
	} else {
		// Group-commit: a flush is in flight; our frame rides in the next
		// batch it drains.
		for f.doneSeq < seq && f.err == nil {
			f.flushed.Wait()
		}
	}
	done := f.doneSeq >= seq
	err := f.err
	f.mu.Unlock()
	if done {
		return nil
	}
	if f.onFail != nil {
		f.onFail(err)
	}
	return err
}

// expectBatch predicts that writers other than the leader are about to
// enqueue: the previous flush carried more than one frame, or the conn's
// reader just readied several callers or workers at once, each of which
// answers with a write. Called with f.mu held.
func (f *connFlusher) expectBatch() bool {
	return f.lastDepth > 1 || f.readBatch.Load()
}

// runFlush drains the queue in batches. Called with f.mu held and
// f.flushing just set; returns with f.mu held and f.flushing cleared. The
// lock is released around the actual socket writes, which is what lets
// later writers coalesce into the next batch.
func (f *connFlusher) runFlush() {
	for len(f.queue) > 0 && f.err == nil {
		batch := f.queue
		f.queue = f.spare[:0]
		var stall time.Duration
		if f.stall != nil {
			stall = time.Duration(f.stall.Load())
		}
		f.mu.Unlock()

		if stall > 0 {
			// Fault injection (degrade-dataplane-batching): hold the flush
			// open so concurrent writers pile into deeper batches and the
			// coalescing paths get exercised under test schedules.
			f.clk.Sleep(stall)
		}
		var err error
		var wire int
		if len(batch) == 1 {
			wire = len(batch[0].frame)
			_, err = f.w.Write(batch[0].frame)
		} else {
			bufs := f.bufs[:0]
			for _, e := range batch {
				bufs = append(bufs, e.frame)
				wire += len(e.frame)
			}
			f.bufs = bufs // keep the grown scratch
			// WriteTo consumes f.nb, not f.bufs, so the scratch keeps its
			// base; writev handles partial writes internally.
			f.nb = bufs
			_, err = f.nb.WriteTo(f.w)
			f.nb = nil
			for i := range bufs {
				bufs[i] = nil
			}
		}
		frames := len(batch)
		if f.hist != nil {
			f.hist.Put(float64(frames))
		}
		for i := range batch {
			if batch[i].fb != nil {
				putFrame(batch[i].fb)
			}
			batch[i] = flushEntry{}
		}

		f.mu.Lock()
		f.spare = batch[:0]
		f.pending -= wire
		f.lastDepth = frames
		if err != nil {
			f.err = err
		} else {
			f.doneSeq += uint64(frames)
			// Count only bytes that made it to the wire, excluding the
			// 4-byte prefixes, matching the pre-batching tx accounting.
			f.tx.Add(uint64(wire - 4*frames))
		}
		f.flushed.Broadcast()
		f.space.Broadcast()
	}
	if f.err != nil && len(f.queue) > 0 {
		// The connection is dead: fail everything still queued. Dropping the
		// entries returns buffer ownership to the waiters, which observe
		// f.err and surface a retryable transport error.
		for i := range f.queue {
			f.pending -= len(f.queue[i].frame)
			if f.queue[i].fb != nil {
				putFrame(f.queue[i].fb)
			}
			f.queue[i] = flushEntry{}
		}
		f.queue = f.queue[:0]
		f.flushed.Broadcast()
		f.space.Broadcast()
	}
	f.flushing = false
}
