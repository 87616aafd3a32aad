package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/metrics"
)

// These tests gate the zero-copy data plane's allocation budget: a
// steady-state unary echo must stay within a couple of allocations per op
// on each side. They run without the race detector (see raceEnabled) and
// are wired into `make check` via the allocs target.

// zeroAllocEchoPeer services the server side of a net.Pipe with a
// hand-rolled loop that reuses its read and write buffers, so the peer
// contributes no steady-state allocations to AllocsPerRun's global malloc
// count. It echoes request args back as the response payload.
func zeroAllocEchoPeer(conn net.Conn) {
	var rbuf []byte
	wbuf := make([]byte, 0, 1024)
	for {
		frame, err := readFrameInto(conn, &rbuf)
		if err != nil {
			return
		}
		if len(frame) < 1+headerSize || frame[0] != frameRequest {
			continue
		}
		var hdr header
		n, err := hdr.decode(frame[1:])
		if err != nil {
			continue
		}
		args := frame[1+n:]
		wbuf = append(wbuf[:0], 0, 0, 0, 0, frameResponse)
		wbuf = binary.LittleEndian.AppendUint64(wbuf, hdr.id)
		wbuf = append(wbuf, statusOK)
		wbuf = append(wbuf, args...)
		binary.LittleEndian.PutUint32(wbuf, uint32(len(wbuf)-4))
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// TestAllocsClientCall gates the client fast path: encoding into a pooled
// headroom buffer plus CallFramed plus Release must cost at most 1
// allocation per call. The steady state measures zero — the completion
// slot is a pooled waiter, the response a pooled Response, the payload a
// slice of the batched read buffer — and the budget of 1 is slack for
// pending-map bucket growth.
func TestAllocsClientCall(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	go zeroAllocEchoPeer(srvSide)

	c := NewClient("pipe", ClientOptions{
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) { return cliSide, nil },
	})
	defer c.Close()

	method := MethodKey("alloc.Echo")
	ctx := context.Background()
	call := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.String("ping-pong payload")
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Data()) == 0 {
			t.Fatal("empty echo")
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	call() // warm up: dial, pools, map buckets

	allocs := testing.AllocsPerRun(200, call)
	if allocs > 1 {
		t.Errorf("client call path allocates %.1f allocs/op, budget is 1", allocs)
	}
}

// TestAllocsMetaDefaultCall gates the zero-cost-metadata contract: a call
// whose CallMeta is the zero value must cost exactly what a pre-metadata
// call cost — the same 1-alloc budget as TestAllocsClientCall — because
// default metadata encodes as the fixed header with no extension bytes.
func TestAllocsMetaDefaultCall(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	go zeroAllocEchoPeer(srvSide)

	c := NewClient("pipe", ClientOptions{
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) { return cliSide, nil },
	})
	defer c.Close()

	method := MethodKey("alloc.Echo")
	ctx := context.Background()
	call := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.String("ping-pong payload")
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{Meta: CallMeta{}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	call() // warm up: dial, pools, map buckets

	allocs := testing.AllocsPerRun(200, call)
	if allocs > 1 {
		t.Errorf("default-meta call path allocates %.1f allocs/op, budget is 1", allocs)
	}

	// Non-default metadata may pay its varint bytes but still must not
	// allocate: the extension is encoded into the buffer's headroom.
	meta := CallOptions{Meta: CallMeta{Priority: PriorityHigh, Attempt: 1, Hedge: true}}
	callMeta := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.String("ping-pong payload")
		resp, err := c.CallFramed(ctx, method, enc.Framed(), meta)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	callMeta()
	allocs = testing.AllocsPerRun(200, callMeta)
	if allocs > 1 {
		t.Errorf("extended-meta call path allocates %.1f allocs/op, budget is 1", allocs)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports heap bytes: it
// runs f once to warm up, then measures five windows of runs calls each.
// Like AllocsPerRun it truncates the per-call means. It returns the
// largest window's mallocs, so every window must meet an alloc budget,
// and the smallest window's bytes: a stray allocation some other
// goroutine makes during one window adds a byte or so to that window's
// mean, while a cost f pays on every call shows in every window. Callers
// pin GOMAXPROCS(1) so other goroutines' garbage stays out of the windows.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	f()
	bytes = math.MaxUint64
	var before, after runtime.MemStats
	for w := 0; w < 5; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = max(allocs, (after.Mallocs-before.Mallocs)/uint64(runs))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return allocs, bytes
}

// reqCtxBytes is the byte budget of a served request's context: one
// handle in Go's 16-byte size class. The request state the handle points
// at, the wheel entry of a deadline-carrying request included, lives in a
// pool worker's slot and is reused across requests.
const reqCtxBytes = 16

// TestAllocsServerDispatch gates the server fast path: admission, dispatch
// through a framed handler that answers from a pooled encoder, and the
// in-place response write. Each request runs on a fresh handle from
// newReqCtx in one reused slot, as a pool worker runs its requests; that
// handle is the only allocation the path may make, and it must fit
// reqCtxBytes. A request carrying a deadline schedules the slot's own
// wheel entry, which finish unlinks, so it stays in the same budget. A
// handler that makes one nested call under its context stays in it too:
// the call waits on its reply alone, so the context's done channel is
// never made.
func TestAllocsServerDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	s := NewServer()
	s.RegisterFramed("alloc.ServerEcho", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(ResponseHeadroom)
		enc.Bytes(args)
		return enc.Framed(), enc, nil
	})

	// The nested call's downstream is a zero-allocation echo peer, so the
	// measurement sees only the served request and the call it makes.
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	go zeroAllocEchoPeer(srvSide)
	c := NewClient("pipe", ClientOptions{
		NumConns: 1,
		Dialer:   func(ctx context.Context, addr string) (net.Conn, error) { return cliSide, nil },
	})
	defer c.Close()
	s.RegisterFramed("alloc.ServerNested", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.Raw(args)
		resp, err := c.CallFramed(ctx, MethodKey("alloc.Echo"), enc.Framed(), CallOptions{})
		codec.PutEncoder(enc)
		if err != nil {
			t.Errorf("nested call: %v", err)
			return nil, nil, err
		}
		out := codec.GetEncoder()
		out.Reserve(ResponseHeadroom)
		out.Raw(resp.Data())
		resp.Release()
		return out.Framed(), out, nil
	})

	fl := newConnFlusher(io.Discard, s.txBytes, s.flushHist, nil, nil)
	args := []byte("ping-pong payload")

	sl := s.takeSlot()
	rc := newReqCtx(sl, header{})
	if size := unsafe.Sizeof(*rc); size > reqCtxBytes {
		t.Errorf("reqCtx is %d bytes, budget is %d", size, reqCtxBytes)
	}
	rc.finish()
	for _, tc := range []struct {
		name          string
		method        string
		deadline      int64
		allocs, bytes uint64
	}{
		{"NoDeadline", "alloc.ServerEcho", 0, 1, reqCtxBytes},
		{"Deadline", "alloc.ServerEcho", time.Now().Add(time.Hour).UnixNano(), 1, reqCtxBytes},
		{"NestedCall", "alloc.ServerNested", 0, 1, reqCtxBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := header{id: 7, method: MethodKey(tc.method), trace: 11, span: 12, parent: 13, deadline: tc.deadline}
			serve := func() {
				rc := newReqCtx(sl, hdr)
				s.handleRequest(rc, fl, hdr, args)
				if rc.done != nil {
					t.Error("serving the request made its context's done channel")
				}
				rc.finish()
			}
			serve() // warm up pools

			allocs, bytes := allocsPerRun(200, serve)
			t.Logf("allocs/op: %d, B/op: %d", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("server dispatch path allocates %d allocs/op, budget is %d", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("server dispatch path allocates %d B/op, budget is %d", bytes, tc.bytes)
			}
			if n := s.wheel.Len(); n != 0 {
				t.Errorf("wheel holds %d entries after finished requests", n)
			}
		})
	}
}

// TestAllocsBatchedClientCalls gates the client side of the batched
// (group-commit) write path: concurrent calls that coalesce into shared
// flush batches must stay within 3 allocations per call, counting the
// caller goroutines themselves (pooled waiter slots brought this down from
// 9: no per-call completion channel survives). The echo peer reuses its
// buffers, so every counted allocation is client-side.
func TestAllocsBatchedClientCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	c := NewClient("pipe", ClientOptions{
		// Every stripe dials its own pipe and echo peer: stripes sharing
		// one pipe would race their readLoops for each other's responses.
		// Client.Close closes the client ends, which stops the peers.
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			cliSide, srvSide := net.Pipe()
			go zeroAllocEchoPeer(srvSide)
			return cliSide, nil
		},
	})
	defer c.Close()

	method := MethodKey("alloc.Echo")
	ctx := context.Background()
	call := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.String("ping-pong payload")
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	// Eight concurrent callers per stripe of width: a flush batch only
	// forms when frames queue behind an in-progress write, and once every
	// stripe holds a call the rest share stripe 0.
	width := 8 * len(c.conns)
	var wg sync.WaitGroup
	batch := func() {
		wg.Add(width)
		for i := 0; i < width; i++ {
			go func() {
				defer wg.Done()
				call()
			}()
		}
		wg.Wait()
	}
	batch() // warm up: dial, pools, goroutine stacks

	const runs = 50
	flushesBefore := c.flushHist.Count()
	allocs := testing.AllocsPerRun(runs, batch) / float64(width)
	if allocs > 3 {
		t.Errorf("batched client call path allocates %.1f allocs/op, budget is 3", allocs)
	}
	// Prove the gate measured the batched path: writes on a net.Pipe park
	// the flusher, so concurrent frames must have shared flushes — fewer
	// flush batches than frames sent.
	frames := uint64((runs + 1) * width)
	if flushes := c.flushHist.Count() - flushesBefore; flushes >= frames {
		t.Errorf("no coalescing observed: %d flushes for %d frames", flushes, frames)
	}
}

// TestAllocsFlushBatch gates the flusher's vectored write: a flush of
// several queued frames over a TCP conn allocates nothing. A writev header
// local to runFlush escapes through net.Buffers.WriteTo, 24 B per
// multi-frame flush, which TestAllocsBatchedClientCalls's per-call budget
// cannot see once it is spread over a batch.
func TestAllocsFlushBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		conn.Close()
		<-drained
	}()

	reg := metrics.NewRegistry()
	hist := reg.Histogram("flush", flushBatchBuckets)
	f := newConnFlusher(conn, reg.Counter("tx"), hist, nil, nil)
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = mkFrame([]byte("one frame of a batch"))
	}
	flush := func() {
		f.mu.Lock()
		for _, fr := range frames {
			f.enqSeq++
			f.queue = append(f.queue, flushEntry{frame: fr})
			f.pending += len(fr)
		}
		f.flushing = true
		f.runFlush()
		err := f.err
		f.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	flush() // grow the queue and writev scratch
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, flush); allocs != 0 {
		t.Errorf("a %d-frame flush allocates %.2f times, want 0", len(frames), allocs)
	}
	// AllocsPerRun adds a warm-up run: every flush wrote one 8-deep batch.
	if n, sum := hist.Count(), hist.Sum(); n != runs+2 || sum != float64(len(frames)*(runs+2)) {
		t.Errorf("%d flushes carried %v frames, want %d batches of %d", n, sum, runs+2, len(frames))
	}
}

// TestAllocsCompressedCall gates the compressed data plane: a call whose
// request and response both ride the flate path must stay within a small
// fixed allocation budget. Before the compressor/inflater pools this path
// cost ~45 allocs and 131 KB per op (BENCH_rpc.json, WeaverTCPCompressed);
// now each direction pays one exact-size output slice plus the uncompressed
// end-to-end overhead.
func TestAllocsCompressedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	s := NewServer()
	s.RegisterFramed("alloc.Compressed", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(ResponseHeadroom)
		enc.Raw(args)
		return enc.Framed(), enc, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{Compress: true})
	defer c.Close()

	method := MethodKey("alloc.Compressed")
	ctx := context.Background()
	// ~9 KB: above DefaultCompressThreshold in both directions.
	payload := bytes.Repeat([]byte("compressible boutique payload "), 300)
	call := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.Raw(payload)
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Data()) != len(payload) {
			t.Fatalf("echo returned %d bytes, want %d", len(resp.Data()), len(payload))
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	for i := 0; i < len(c.conns)+1; i++ {
		call()
	}

	allocs := testing.AllocsPerRun(100, call)
	t.Logf("allocs/op: %.1f", allocs)
	// Measures 5 per op (6 while compressed frames were assembled out of
	// place): one exact-size inflate output per direction and the
	// uncompressed end-to-end bookkeeping, plus a slack of 6.
	if allocs > 11 {
		t.Errorf("compressed round trip allocates %.1f allocs/op, budget is 11", allocs)
	}
}

// TestAllocsEndToEnd measures (without gating hard) the full round trip
// over a real TCP socket through the public API, as documentation of where
// the remaining per-call allocations live. It fails only on gross
// regression.
func TestAllocsEndToEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector (sync.Pool drops Puts)")
	}
	s := NewServer()
	s.RegisterFramed("alloc.E2E", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(ResponseHeadroom)
		enc.Bytes(args)
		return enc.Framed(), enc, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	method := MethodKey("alloc.E2E")
	ctx := context.Background()
	payload := bytes.Repeat([]byte("x"), 64)
	call := func() {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.Bytes(payload)
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
	// Warm up: the first call dials stripe 0, the only one a sequential
	// caller uses.
	for i := 0; i < len(c.conns)+1; i++ {
		call()
	}

	allocs := testing.AllocsPerRun(100, call)
	// Both sides of a real connection run here: the client channel, the
	// server's per-request goroutine, context, and inflight bookkeeping.
	if allocs > 6 {
		t.Errorf("end-to-end round trip allocates %.1f allocs/op, budget is 6", allocs)
	}
}
