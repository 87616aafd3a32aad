package rpc

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// startLimited starts a server with the given admission limits, a blocking
// "adm.Block" handler, and a trivial "adm.Fast" handler. The returned
// release func unblocks every blocked handler (idempotent via close).
func startLimited(t *testing.T, opts ServerOptions) (s *Server, addr string, started chan struct{}, release func()) {
	t.Helper()
	s = NewServerWithOptions(opts)
	block := make(chan struct{})
	started = make(chan struct{}, 64)
	registerBytes(s, "adm.Block", func(ctx context.Context, args []byte) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	})
	registerBytes(s, "adm.Fast", func(ctx context.Context, args []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var released bool
	release = func() {
		if !released {
			released = true
			close(block)
		}
	}
	t.Cleanup(func() {
		release()
		s.Close()
	})
	return s, addr, started, release
}

func TestAdmissionShedsAtCapacity(t *testing.T) {
	_, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1})
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	shedBefore := metrics.Default.Counter("rpc.server.shed").Value()

	blockDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
		blockDone <- err
	}()
	<-started // the single slot is now occupied

	_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil, CallOptions{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call at capacity: err = %v, want ErrOverloaded", err)
	}
	if got := metrics.Default.Counter("rpc.server.shed").Value(); got <= shedBefore {
		t.Errorf("shed counter did not advance: %d -> %d", shedBefore, got)
	}

	release()
	if err := <-blockDone; err != nil {
		t.Fatalf("blocked call failed: %v", err)
	}
	// With the slot free again, calls must flow.
	if _, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil, CallOptions{}); err != nil {
		t.Fatalf("call after release: %v", err)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	s, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 2})
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	blockDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
		blockDone <- err
	}()
	<-started

	// This call queues behind the blocked one rather than being shed.
	fastDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil, CallOptions{})
		fastDone <- err
	}()
	// Wait until the server has actually queued it (admission has no
	// timers, so this is a condition wait rather than a clock advance),
	// then confirm it is still parked there, not answered.
	waitFor(t, func() bool { return s.queued.Load() > 0 })
	select {
	case err := <-fastDone:
		t.Fatalf("queued call returned early: %v", err)
	default:
	}

	release()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("queued call failed after slot freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued call never ran after slot freed")
	}
	if err := <-blockDone; err != nil {
		t.Fatalf("blocked call failed: %v", err)
	}
}

func TestAdmissionQueueOverflowSheds(t *testing.T) {
	s, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 1})
	defer release()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
	}()
	<-started

	// Fill the one queue slot with a second blocked call.
	queued := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
		queued <- err
	}()
	// Wait until the server has actually queued it.
	waitFor(t, func() bool { return s.queued.Load() > 0 })

	// The queue is full: the next request must be shed immediately.
	start := time.Now()
	_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil, CallOptions{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call with full queue: err = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shed took %v; should be immediate", elapsed)
	}

	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued call failed: %v", err)
	}
}

// TestPriorityAdmissionShedsLowFirst saturates a MaxInflight=1 server,
// parks two low-priority calls in its two queue slots, and then sends a
// high-priority call: the newcomer must evict one of the queued low calls
// (which observes ErrOverloaded) rather than being refused itself, and
// must complete once the slot frees.
func TestPriorityAdmissionShedsLowFirst(t *testing.T) {
	s, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 2})
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	shedLowBefore := metrics.Default.Counter("rpc.server.shed.low").Value()
	admittedHighBefore := metrics.Default.Counter("rpc.server.admitted.high").Value()

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
	}()
	<-started // the single slot is now occupied

	lowDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil,
				CallOptions{Meta: CallMeta{Priority: PriorityLow}})
			lowDone <- err
		}()
	}
	waitFor(t, func() bool { return s.queued.Load() == 2 })

	// The queue is full of low-priority work: a high-priority arrival must
	// displace one low call immediately and take its place.
	highDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil,
			CallOptions{Meta: CallMeta{Priority: PriorityHigh}})
		highDone <- err
	}()
	select {
	case err := <-lowDone:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("evicted low call: err = %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no low-priority call was evicted for the high-priority arrival")
	}
	select {
	case err := <-highDone:
		t.Fatalf("high-priority call returned while the slot was blocked: %v", err)
	default:
	}

	release()
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority call failed after slot freed: %v", err)
	}
	if err := <-lowDone; err != nil {
		t.Fatalf("surviving low call failed after slot freed: %v", err)
	}

	if got := metrics.Default.Counter("rpc.server.shed.low").Value(); got <= shedLowBefore {
		t.Errorf("rpc.server.shed.low did not advance: %d -> %d", shedLowBefore, got)
	}
	if got := metrics.Default.Counter("rpc.server.admitted.high").Value(); got <= admittedHighBefore {
		t.Errorf("rpc.server.admitted.high did not advance: %d -> %d", admittedHighBefore, got)
	}
}

// TestPriorityEvictionPrefersQueuedHedge fills the queue with one hedged
// and one plain low-priority call; the high-priority arrival must evict
// the hedged duplicate (its twin is still running elsewhere) and count it
// in rpc.server.hedge_dropped.
func TestPriorityEvictionPrefersQueuedHedge(t *testing.T) {
	s, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 2})
	defer release()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	droppedBefore := metrics.Default.Counter("rpc.server.hedge_dropped").Value()

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
	}()
	<-started

	plainDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil,
			CallOptions{Meta: CallMeta{Priority: PriorityLow}})
		plainDone <- err
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	hedgeDone := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("adm.Fast"), nil,
			CallOptions{Meta: CallMeta{Priority: PriorityLow, Hedge: true}})
		hedgeDone <- err
	}()
	waitFor(t, func() bool { return s.queued.Load() == 2 })

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Fast"), nil,
			CallOptions{Meta: CallMeta{Priority: PriorityHigh}})
	}()

	select {
	case err := <-hedgeDone:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("evicted hedge: err = %v, want ErrOverloaded", err)
		}
	case err := <-plainDone:
		t.Fatalf("plain call evicted ahead of the queued hedge: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no queued call was evicted")
	}
	if got := metrics.Default.Counter("rpc.server.hedge_dropped").Value(); got <= droppedBefore {
		t.Errorf("rpc.server.hedge_dropped did not advance: %d -> %d", droppedBefore, got)
	}
}

// TestPriorityQueuedHedgeDroppedOnCancel parks a hedged call in the queue
// and cancels its caller (as the data plane does when the hedge's twin
// answers first): the server must drop it unexecuted and count it.
func TestPriorityQueuedHedgeDroppedOnCancel(t *testing.T) {
	s, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 2})
	defer release()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	droppedBefore := metrics.Default.Counter("rpc.server.hedge_dropped").Value()

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	hedgeDone := make(chan error, 1)
	go func() {
		_, err := callBytes(ctx, c, MethodKey("adm.Fast"), nil,
			CallOptions{Meta: CallMeta{Hedge: true}})
		hedgeDone <- err
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	cancel() // the primary answered elsewhere; this duplicate is abandoned
	if err := <-hedgeDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled hedge: err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool {
		return metrics.Default.Counter("rpc.server.hedge_dropped").Value() > droppedBefore
	})
	waitFor(t, func() bool { return s.queued.Load() == 0 })
}

// BenchmarkPriorityShedding saturates a small-MaxInflight server with an
// even mix of low- and high-priority calls and reports, besides the usual
// ns/op, what fraction of each class completed. The point of the numbers:
// under sustained overload the high class should complete at (near) 1.0
// while the low class absorbs the shedding.
func BenchmarkPriorityShedding(b *testing.B) {
	s := NewServerWithOptions(ServerOptions{MaxInflight: 2, MaxQueue: 4})
	registerBytes(s, "bench.Work", func(ctx context.Context, args []byte) ([]byte, error) {
		time.Sleep(50 * time.Microsecond)
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	method := MethodKey("bench.Work")
	var goroutines atomic.Int64
	var lowOK, lowShed, highOK, highShed atomic.Int64
	b.SetParallelism(8) // oversubscribe so the 2 slots are always contended
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Alternate classes across worker goroutines.
		var opts CallOptions
		high := goroutines.Add(1)%2 == 0
		if high {
			opts.Meta = CallMeta{Priority: PriorityHigh}
		} else {
			opts.Meta = CallMeta{Priority: PriorityLow}
		}
		for pb.Next() {
			_, err := callBytes(context.Background(), c, method, nil, opts)
			switch {
			case err == nil && high:
				highOK.Add(1)
			case err == nil:
				lowOK.Add(1)
			case errors.Is(err, ErrOverloaded) && high:
				highShed.Add(1)
			case errors.Is(err, ErrOverloaded):
				lowShed.Add(1)
			default:
				b.Error(err)
			}
		}
	})
	b.StopTimer()
	frac := func(ok, shed int64) float64 {
		if ok+shed == 0 {
			return 1
		}
		return float64(ok) / float64(ok+shed)
	}
	b.ReportMetric(frac(highOK.Load(), highShed.Load()), "high-ok-frac")
	b.ReportMetric(frac(lowOK.Load(), lowShed.Load()), "low-ok-frac")
}

func TestAdmissionShedsExpiredDeadlineWhileQueued(t *testing.T) {
	_, addr, started, release := startLimited(t, ServerOptions{MaxInflight: 1, MaxQueue: 4})
	defer release()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("adm.Block"), nil, CallOptions{})
	}()
	<-started

	// Speak raw frames so the client-side deadline cannot mask the server's
	// decision: the request queues, its deadline expires before a slot
	// frees, and the server must answer statusOverloaded rather than hold
	// the request or execute it late.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	hdr := header{
		id:       1,
		method:   MethodKey("adm.Fast"),
		deadline: time.Now().Add(60 * time.Millisecond).UnixNano(),
	}
	var buf [1 + headerSize]byte
	buf[0] = frameRequest
	hdr.encode(buf[1:])
	if _, err := conn.Write(mkFrame(buf[:])); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrameInto(conn, new([]byte))
	if err != nil {
		t.Fatalf("no response for queued-then-expired request: %v", err)
	}
	if frame[0] != frameResponse {
		t.Fatalf("frame type = %d, want response", frame[0])
	}
	if id := getUint64(frame[1:9]); id != 1 {
		t.Fatalf("response id = %d, want 1", id)
	}
	if status := frame[9]; status != statusOverloaded {
		t.Fatalf("status = %d, want statusOverloaded (%d)", status, statusOverloaded)
	}
}
