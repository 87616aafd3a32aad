package rpc

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// gateWriter blocks each Write until released, recording every payload it
// saw and how many Write calls it took to deliver them.
type gateWriter struct {
	mu     sync.Mutex
	gate   chan struct{}
	writes int
	bytes  int
	fail   error
}

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func testFrame(payload string) ([]byte, *frameBuf) {
	fb := getFrame()
	buf := append(fb.b[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	fb.b = buf
	return buf, fb
}

func TestFlusherLoneWriteIsImmediate(t *testing.T) {
	w := &gateWriter{}
	f := newConnFlusher(w, metrics.Default.Counter("test.flusher.tx"), nil, nil, nil)
	head, fb := testFrame("solo")
	if err := f.write(head, fb); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("lone write took %d Write calls, want 1", w.writes)
	}
}

func TestFlusherCoalescesConcurrentWrites(t *testing.T) {
	// Hold the first flush open at the socket; everything enqueued behind
	// it must land in one follow-up flush batch.
	w := &gateWriter{gate: make(chan struct{})}
	reg := metrics.NewRegistry()
	hist := reg.Histogram("flush", flushBatchBuckets)
	f := newConnFlusher(w, metrics.Default.Counter("test.flusher.tx"), hist, nil, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		head, fb := testFrame("leader")
		if err := f.write(head, fb); err != nil {
			t.Errorf("leader write: %v", err)
		}
	}()
	// Wait until the leader is the flusher (blocked in the gated Write).
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.flushing
	})

	const followers = 10
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			head, fb := testFrame("follower")
			if err := f.write(head, fb); err != nil {
				t.Errorf("follower write: %v", err)
			}
		}()
	}
	// Wait until every follower is enqueued behind the in-flight flush.
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.queue) == followers
	})
	w.gate <- struct{}{} // release the leader's write
	close(w.gate)        // and everything after it
	wg.Wait()

	// Exactly two flushes: the leader alone, then all followers group-
	// committed in one batch. (Write-call counts are checked loosely: on a
	// plain io.Writer net.Buffers degrades to one Write per buffer; real
	// TCP conns take the writev path.)
	if got := hist.Count(); got != 2 {
		t.Errorf("batch histogram recorded %d flushes, want 2", got)
	}
	if snap := reg.Snapshot(); len(snap) != 1 || snap[0].Sum != float64(1+followers) {
		t.Errorf("flushed frame total = %v, want %d across 2 batches", snap[0].Sum, 1+followers)
	}
}

func TestFlusherErrorFailsQueuedWriters(t *testing.T) {
	w := &gateWriter{gate: make(chan struct{})}
	f := newConnFlusher(w, metrics.Default.Counter("test.flusher.tx"), nil, nil, nil)
	boom := errors.New("socket torn")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		head, fb := testFrame("leader")
		if err := f.write(head, fb); !errors.Is(err, boom) {
			t.Errorf("leader write err = %v, want %v", err, boom)
		}
	}()
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.flushing
	})

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			head, fb := testFrame("doomed")
			errs <- f.write(head, fb)
		}()
	}
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.queue) == 4
	})
	w.mu.Lock()
	w.fail = boom
	w.mu.Unlock()
	close(w.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("queued writer err = %v, want %v", err, boom)
		}
	}
	// Later writers fail fast without touching the dead socket.
	head, fb := testFrame("late")
	if err := f.write(head, fb); !errors.Is(err, boom) {
		t.Errorf("post-mortem write err = %v, want %v", err, boom)
	}
}

func TestFlusherBackpressureBindsPendingBytes(t *testing.T) {
	w := &gateWriter{gate: make(chan struct{})}
	f := newConnFlusher(w, metrics.Default.Counter("test.flusher.tx"), nil, nil, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		head, fb := testFrame("leader")
		_ = f.write(head, fb)
	}()
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.flushing
	})

	// Stuff the queue past the backlog cap; the writer that crosses the cap
	// must block rather than enqueue.
	big := make([]byte, maxFlushBacklog+4)
	binary.LittleEndian.PutUint32(big, uint32(maxFlushBacklog))
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = f.write(big, nil)
	}()
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.pending > maxFlushBacklog
	})

	var blocked atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		head, fb := testFrame("overflow")
		blocked.Store(true)
		_ = f.write(head, fb)
	}()
	waitFor(t, func() bool { return blocked.Load() })
	time.Sleep(5 * time.Millisecond)
	f.mu.Lock()
	queued := len(f.queue)
	f.mu.Unlock()
	if queued != 1 {
		t.Errorf("queue holds %d entries with backlog full, want 1 (overflow writer must wait)", queued)
	}
	close(w.gate)
	wg.Wait()
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
