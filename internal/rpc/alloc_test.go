package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/codec"
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

// TestAllocsServerDispatch gates the server fast path: admission, dispatch
// through a framed handler that answers from a pooled encoder, and the
// in-place response write. Each request runs on a fresh *reqCtx, as the
// read loop creates one per request frame; that context, which carries the
// CallInfo and span context as fields, is the only allocation the path may
// make.
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

	fl := newConnFlusher(io.Discard, s.txBytes, s.flushHist, nil, nil)
	hdr := header{id: 7, method: MethodKey("alloc.ServerEcho"), trace: 11, span: 12, parent: 13}
	args := []byte("ping-pong payload")

	serve := func() {
		rc := &reqCtx{clk: s.opts.Clock, wheel: s.wheel}
		s.handleRequest(rc, fl, hdr, args)
		rc.finish()
	}
	serve() // warm up pools

	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("allocs/op: %.1f", allocs)
	if allocs > 1 {
		t.Errorf("server dispatch path allocates %.1f allocs/op, budget is 1 (the reqCtx)", allocs)
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
	// Eight concurrent callers per stripe: a flush batch only forms when
	// frames queue behind an in-progress write, which two callers sharing
	// a stripe can never do.
	width := 8 * c.numConns
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
	for i := 0; i < c.numConns+1; i++ {
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
	// Warm up every stripe: round-robin assignment means the first
	// numConns calls each dial a fresh connection.
	for i := 0; i < c.numConns+1; i++ {
		call()
	}

	allocs := testing.AllocsPerRun(100, call)
	// Both sides of a real connection run here: the client channel, the
	// server's per-request goroutine, context, and inflight bookkeeping.
	if allocs > 6 {
		t.Errorf("end-to-end round trip allocates %.1f allocs/op, budget is 6", allocs)
	}
}
