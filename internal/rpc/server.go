package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/tracing"
)

// A BufOwner owns a pooled buffer handed to the transport. The transport
// calls Release exactly once, after the buffer's bytes are on the wire (or
// abandoned); the buffer is invalid afterwards. codec.Encoder implements
// BufOwner, so handlers can hand their pooled encoder straight to the
// server.
type BufOwner interface{ Release() }

// A FramedHandler executes one component method. args is the request
// payload (already stripped of the RPC header). The returned buffer must
// hold ResponseHeadroom bytes of scratch followed by the result payload
// (see codec.Encoder.Reserve); the server fills the response framing into
// the scratch in place and writes the buffer with a single Write. A
// non-nil owner is released by the server once the response has been
// written; on a non-nil error both framed and owner must be nil.
//
// Application-level errors are encoded inside the result payload by
// generated code; a non-nil error return signals a dispatch failure (bad
// payload, handler panic) and is reported to the caller as a transport
// error.
//
// args aliases a pooled read buffer that is recycled when the handler's
// response has been written: a handler may alias args in its result but
// must copy anything it retains beyond returning.
type FramedHandler func(ctx context.Context, args []byte) (framed []byte, owner BufOwner, err error)

// CallInfo describes the call being handled, available to handlers via
// InfoFromContext.
type CallInfo struct {
	Method string
	// Trace is the inbound span context; its Sampled bit is the root
	// tracer's decision carried on the wire (flagSampled).
	Trace tracing.SpanContext
	Shard uint64
	// Meta is the call's wire metadata: priority class, attempt ordinal,
	// hedge marker.
	Meta CallMeta
}

type callInfoKey struct{}

// InfoFromContext returns the CallInfo for an in-flight handler invocation.
func InfoFromContext(ctx context.Context) (CallInfo, bool) {
	if rc, ok := ctx.(*reqCtx); ok {
		return rc.callInfo()
	}
	ci, ok := ctx.Value(callInfoKey{}).(CallInfo)
	return ci, ok
}

// ServerOptions configures a server's admission control (paper §5: the
// runtime, not the developer, owns graceful handling of overload).
type ServerOptions struct {
	// MaxInflight bounds the number of concurrently executing handlers.
	// Zero means unlimited (the historical behavior).
	MaxInflight int
	// MaxQueue bounds the number of requests allowed to wait for an
	// execution slot once MaxInflight is reached. Requests beyond the
	// queue — and queued requests whose deadline expires before a slot
	// frees — are shed with statusOverloaded instead of piling up.
	// Zero means no queue: reject immediately at capacity.
	MaxQueue int
	// Clock supplies the timers behind injected dispatch delay (SetDelay)
	// and drain polling. Nil means the wall clock; deterministic tests
	// inject a fake.
	Clock clock.Clock
}

// A Server accepts weaver-protocol connections and dispatches requests to
// registered handlers.
type Server struct {
	opts ServerOptions

	mu       sync.Mutex
	handlers map[MethodID]*registeredHandler
	lis      net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Admission control: adm is the priority-aware admission gate (nil
	// when unlimited).
	adm *admitter

	// Drain state: once draining is set, new requests are answered with
	// statusUnavailable (never executed, so callers retry elsewhere) while
	// inflightReqs counts requests already past that gate.
	draining     atomic.Bool
	inflightReqs atomic.Int64

	// delayNanos injects latency before every dispatch. It exists for the
	// chaos harness, which uses it to simulate a sick/slow replica.
	delayNanos atomic.Int64

	// flushStallNanos injects a stall before every response-flusher batch
	// write, forcing concurrent responses to coalesce into deeper batches.
	// It exists for the chaos/sim harnesses (degrade-dataplane-batching).
	flushStallNanos atomic.Int64

	// readStallNanos injects a stall before every batched frame read — the
	// stall-read fault: a replica that drains its receive queue slowly, so
	// requests pile up in the kernel buffer and arrive in deep batches.
	readStallNanos atomic.Int64

	// wheel tracks every in-flight request deadline on one coalesced
	// ticker (see clock.Wheel) instead of a runtime timer per request.
	wheel *clock.Wheel
	// pool runs requests on reusable worker goroutines.
	pool *workerPool

	// Metrics.
	requests  *metrics.Counter
	errored   *metrics.Counter
	shed      *metrics.Counter
	unavail   *metrics.Counter
	rxBytes   *metrics.Counter
	txBytes   *metrics.Counter
	flushHist *metrics.Histogram
	readHist  *metrics.Histogram
	// Per-priority-class admission outcomes, indexed by shed rank.
	admittedByClass [numPriorities]*metrics.Counter
	shedByClass     [numPriorities]*metrics.Counter
	hedgeDropMetric *metrics.Counter
}

type registeredHandler struct {
	name string
	ffn  FramedHandler

	// tombstone marks a method whose handler was unregistered (the
	// component moved away). Requests for it are answered with
	// statusUnavailable — a retryable "never executed" signal — instead of
	// the hard dispatch error a genuinely unknown method gets.
	tombstone bool
	// inflight counts calls currently executing this handler; Unregister
	// waits on it to drain. Add happens under Server.mu, so a waiter that
	// has removed the handler from the map cannot miss a straggler.
	inflight sync.WaitGroup
}

// NewServer returns a server with no handlers registered and no admission
// limits.
func NewServer() *Server {
	return NewServerWithOptions(ServerOptions{})
}

// NewServerWithOptions returns a server with the given admission control
// configuration and no handlers registered.
func NewServerWithOptions(opts ServerOptions) *Server {
	s := &Server{
		opts:     opts,
		handlers: map[MethodID]*registeredHandler{},
		conns:    map[net.Conn]struct{}{},
		requests: metrics.Default.Counter("rpc.server.requests"),
		errored:  metrics.Default.Counter("rpc.server.errors"),
		shed:     metrics.Default.Counter("rpc.server.shed"),
		unavail:  metrics.Default.Counter("rpc.server.unavailable"),
		rxBytes:  metrics.Default.Counter("rpc.server.rx_bytes"),
		txBytes:  metrics.Default.Counter("rpc.server.tx_bytes"),

		flushHist: metrics.Default.Histogram("rpc.server.flush_batch_frames", flushBatchBuckets),
		readHist:  metrics.Default.Histogram("rpc.server.read_batch_frames", flushBatchBuckets),

		hedgeDropMetric: metrics.Default.Counter("rpc.server.hedge_dropped"),
	}
	for rank, p := range priorityByRank {
		s.admittedByClass[rank] = metrics.Default.Counter("rpc.server.admitted." + p.String())
		s.shedByClass[rank] = metrics.Default.Counter("rpc.server.shed." + p.String())
	}
	s.opts.Clock = clock.Or(opts.Clock)
	if opts.MaxInflight > 0 {
		s.adm = newAdmitter(opts.MaxInflight, opts.MaxQueue, s.hedgeDropMetric)
	}
	// One wheel tick per millisecond while any deadline is outstanding;
	// 256 slots keep a tick's sweep to the entries actually due.
	s.wheel = clock.NewWheel(s.opts.Clock, time.Millisecond, 256)
	// The worker cap only bounds goroutine reuse, not concurrency (past it,
	// dispatch falls back to plain goroutines). Admission can park at most
	// MaxInflight+MaxQueue workers, so size above that watermark.
	workers := 512
	if opts.MaxInflight > 0 {
		workers = opts.MaxInflight + opts.MaxQueue
		if workers < 16 {
			workers = 16
		}
	}
	s.pool = newWorkerPool(workers)
	return s
}

// SetDelay injects d of latency before each dispatch, respecting request
// cancellation. Chaos tests use it to degrade a replica; zero clears it.
func (s *Server) SetDelay(d time.Duration) { s.delayNanos.Store(int64(d)) }

// SetFlushStall injects d of stall before each response-flusher batch
// write, so concurrent responses pile into deeper coalesced batches — the
// degrade-dataplane-batching fault. Zero clears it. Unlike SetDelay this
// does not delay dispatch: it squeezes the write path specifically, which
// also exercises the flusher's pending-bytes backpressure.
func (s *Server) SetFlushStall(d time.Duration) { s.flushStallNanos.Store(int64(d)) }

// SetReadStall injects d of stall before each batched frame read, so the
// peer's frames pile up in the socket buffer and arrive in deep batches —
// the stall-read (slow reader) fault. Zero clears it. Responses still
// flush promptly; only the receive path is squeezed.
func (s *Server) SetReadStall(d time.Duration) { s.readStallNanos.Store(int64(d)) }

// admit blocks until the request may execute, or reports that it must be
// shed. With no limit configured every request is admitted immediately.
// At capacity the request waits in a bounded queue ordered by the meta's
// priority class; it is shed if the queue is full of equal-or-higher
// priority work, if a higher-priority arrival evicts it, or if its
// deadline expires (or its caller cancels) before a slot frees —
// executing it then would be wasted work.
func (s *Server) admit(ctx context.Context, meta CallMeta) bool {
	if s.adm == nil {
		return true
	}
	return s.adm.admit(ctx, meta)
}

// release returns an execution slot.
func (s *Server) release() {
	if s.adm != nil {
		s.adm.release()
	}
}

// RegisterFramed installs a handler for the fully-qualified method name.
// It panics if the name (or its 32-bit hash) is already taken: hash
// collisions must be caught at startup, not mid-request.
func (s *Server) RegisterFramed(fullName string, h FramedHandler) {
	id := MethodKey(fullName)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.handlers[id]; ok && !(prev.tombstone && prev.name == fullName) {
		panic(fmt.Sprintf("rpc: method registration conflict: %q and %q share id %#x", prev.name, fullName, id))
	}
	s.handlers[id] = &registeredHandler{name: fullName, ffn: h}
}

// Unregister removes the handler for fullName and blocks until its
// in-flight calls have finished. A tombstone is left behind: later requests
// for the method are answered with statusUnavailable — a retryable signal
// that the request was never executed — because the usual reason for
// unregistration is that the component moved to another group and the
// caller simply holds stale routing. Re-registering the name later (the
// component moved back) is allowed. Unregistering a name that was never
// registered is a no-op.
func (s *Server) Unregister(fullName string) {
	id := MethodKey(fullName)
	s.mu.Lock()
	h, ok := s.handlers[id]
	if !ok || h.tombstone || h.name != fullName {
		s.mu.Unlock()
		return
	}
	s.handlers[id] = &registeredHandler{name: fullName, tombstone: true}
	s.mu.Unlock()
	h.inflight.Wait()
}

// Drain puts the server into a draining state and waits for in-flight
// requests to finish. New requests are answered with statusUnavailable
// (never executed, so callers safely retry on another replica) rather than
// refused at the socket: the listener and connections stay open so
// in-flight responses are still delivered and stale callers get a clean
// retry signal instead of a broken connection. Drain returns nil once no
// request is in flight, or ctx.Err() if the deadline expires first.
// Draining is terminal — it is the first phase of a graceful shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflightReqs.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.opts.Clock.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Serve accepts connections from lis until the server is closed. It always
// returns a non-nil error; after Close the error is net.ErrClosed. On a
// server already closed it closes lis itself: Listen starts Serve on its own
// goroutine, so a Close that runs first never sees lis.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Listen starts serving on a fresh TCP listener bound to addr (use
// "127.0.0.1:0" for an ephemeral port) and returns the bound address.
// Serving continues on a background goroutine until Close.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = s.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Close stops the listener, closes all connections, and waits for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// Every serveConn has drained its requests; retire the idle workers
	// and the deadline wheel's runner.
	s.pool.stop()
	s.wheel.Close()
	return nil
}

// serveConn owns one connection: a batched frameReader slices every
// request frame the kernel has buffered out of one Read, and each request
// runs on the worker pool with its deadline tracked by the server's timer
// wheel — no goroutine spawn, runtime timer, or buffer copy per request.
// Responses coalesce through the connection's write flusher.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}

	st := newConnState()
	defer st.wg.Wait()

	fl := newConnFlusher(conn, s.txBytes, s.flushHist, &s.flushStallNanos, s.opts.Clock)
	fr := newFrameReader(conn, s.readHist, &s.readStallNanos, s.opts.Clock)
	fr.batch = &fl.readBatch
	defer fr.close()

	for {
		// Each request frame aliases the shared pooled read buffer and
		// holds a reference to it; the reference drops after the response
		// is written, so handlers may alias args freely while the reader
		// moves on to fresh buffers.
		frame, rb, err := fr.next()
		if err != nil {
			// Cancel everything still running on this connection: the
			// caller is gone.
			st.cancelAll()
			return
		}
		s.rxBytes.Add(uint64(len(frame)))
		if len(frame) == 0 {
			rb.release()
			continue
		}
		typ, payload := frame[0], frame[1:]
		switch typ {
		case frameRequest:
			var hdr header
			n, err := hdr.decode(payload)
			if err != nil {
				rb.release()
				continue // malformed; drop
			}
			s.requests.Inc()

			st.wg.Add(1)
			s.pool.submit(reqWork{s: s, fl: fl, st: st, rb: rb, hdr: hdr, args: payload[n:]})

		case frameCancel:
			if len(payload) >= 8 {
				st.cancel(getUint64(payload))
			}
			rb.release()

		case framePing:
			// Answered inline, outside admission and drain: a ping probes
			// the connection, not the handlers.
			if len(payload) >= 8 {
				_ = fl.writeControl(frameResponse, getUint64(payload), statusOK)
			}
			rb.release()

		default:
			// Clients send no responses, so those (and unknown types) are
			// ignored.
			rb.release()
		}
	}
}

// handleRequest runs one request to completion: admission, dispatch, and
// response write. It runs on a pool worker, or on a goroutine of its own
// past the pool's cap; args aliases the pooled request frame, which the
// caller returns to the pool afterwards.
func (s *Server) handleRequest(rc *reqCtx, fl *connFlusher, hdr header, args []byte) {
	// Count in-flight before checking the drain gate: Drain stores the flag
	// and then polls the counter, so a request that saw draining==false is
	// guaranteed visible to the poll.
	s.inflightReqs.Add(1)
	defer s.inflightReqs.Add(-1)
	if s.draining.Load() {
		s.unavail.Inc()
		_ = fl.writeControl(frameResponse, hdr.id, statusUnavailable)
		return
	}

	if hdr.flags&flagPayloadCompressed != 0 {
		inflated, err := decompress(args)
		if err != nil {
			return // corrupt payload; drop like other malformed frames
		}
		args = inflated
	}

	rank := hdr.meta.Priority.shedRank()
	if !s.admit(rc, hdr.meta) {
		s.shed.Inc()
		s.shedByClass[rank].Inc()
		_ = fl.writeControl(frameResponse, hdr.id, statusOverloaded)
		return
	}
	s.admittedByClass[rank].Inc()
	result, owner, herr := s.dispatch(rc, hdr, args)
	s.release()

	if herr != nil {
		if owner != nil {
			owner.Release()
		}
		if errors.Is(herr, errUnavailable) {
			s.unavail.Inc()
			_ = fl.writeControl(frameResponse, hdr.id, statusUnavailable)
			return
		}
		s.errored.Inc()
		_ = fl.writeControl(frameResponse, hdr.id, append([]byte{statusError}, herr.Error()...)...)
		return
	}
	if hdr.flags&flagAcceptCompressed != 0 && len(result)-ResponseHeadroom >= DefaultCompressThreshold {
		if small, comp, ok := compress(result[ResponseHeadroom:], ResponseHeadroom); ok {
			if owner != nil {
				owner.Release()
			}
			_ = respondFramed(fl, hdr.id, statusOKCompressed, small)
			comp.release()
			return
		}
	}
	_ = respondFramed(fl, hdr.id, statusOK, result)
	if owner != nil {
		owner.Release()
	}
}

// respondFramed fills the response framing into the ResponseHeadroom
// scratch at the front of framed and writes the buffer in place — the
// zero-copy path for pooled handler results and compressed ones alike.
// The buffer stays owned by the flusher until the call returns.
func respondFramed(fl *connFlusher, id uint64, status byte, framed []byte) error {
	framed[4] = frameResponse
	putUint64(framed[5:13], id)
	framed[13] = status
	return fl.writeFramed(framed)
}

// dispatch runs the handler for hdr.method after the injected fault
// delay (SetDelay), converting panics into errors so one bad request
// cannot take down the proclet. On success result carries
// ResponseHeadroom scratch ahead of the payload, and owner (when non-nil)
// must be released once the result bytes are no longer referenced.
func (s *Server) dispatch(rc *reqCtx, hdr header, args []byte) (result []byte, owner BufOwner, err error) {
	s.mu.Lock()
	h, ok := s.handlers[hdr.method]
	if ok && !h.tombstone {
		h.inflight.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("rpc: unknown method %#x", hdr.method)
	}
	if h.tombstone {
		return nil, nil, errUnavailable
	}
	defer h.inflight.Done()
	defer func() {
		if r := recover(); r != nil {
			result, owner = nil, nil
			err = fmt.Errorf("rpc: handler %s panicked: %v\n%s", h.name, r, debug.Stack())
		}
	}()

	rc.h = h
	rc.trace = tracing.TraceID(hdr.trace)
	rc.span = tracing.SpanID(hdr.span)
	rc.parent = tracing.SpanID(hdr.parent)
	rc.sampled = hdr.flags&flagSampled != 0
	rc.shard = hdr.shard
	rc.meta = hdr.meta
	if err := rc.Err(); err != nil {
		return nil, nil, err
	}
	// The degrade-replica fault (SetDelay) stalls dispatch until the delay
	// passes or the caller gives up. Its sibling, the response-flusher
	// stall (SetFlushStall), lives in the flusher: it must squeeze the
	// batched write, after the handler completes.
	if d := time.Duration(s.delayNanos.Load()); d > 0 {
		timer := s.opts.Clock.NewTimer(d)
		select {
		case <-timer.C():
		case <-rc.Done():
			timer.Stop()
			return nil, nil, rc.Err()
		}
	}
	return h.ffn(rc, args)
}

// ErrShutdown is returned for calls attempted on a closed client.
var ErrShutdown = errors.New("rpc: client is shut down")

// errUnavailable is the server-internal signal that dispatch found a
// tombstoned (unregistered) handler; it surfaces to callers as
// statusUnavailable, never as an error string.
var errUnavailable = errors.New("rpc: handler unavailable")

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
