package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/tracing"
)

// CallOptions carries per-call metadata.
type CallOptions struct {
	// Shard is the routing affinity key hash; zero means unrouted.
	Shard uint64
	// Trace is the span context propagated to the callee, including the
	// root tracer's sampling decision (flagSampled on the wire).
	Trace tracing.SpanContext
	// Meta is the call's admission metadata (priority class, attempt
	// ordinal, hedge marker). The zero value costs nothing on the wire.
	Meta CallMeta
}

// ErrOverloaded is returned (wrapped in a *TransportError) when the server
// shed the request under admission control. The request was never executed,
// so retrying it on a different replica is safe even for methods with
// at-most-once (weaver:noretry) semantics.
var ErrOverloaded = errors.New("rpc: server overloaded")

// ErrUnavailable is returned (wrapped in a *TransportError) when the server
// cannot serve the method: it is draining for shutdown, or the method's
// handlers were unregistered because the component moved to another group
// (live re-placement). Like ErrOverloaded the request was never executed,
// so retrying it on a different replica is safe even for methods with
// at-most-once (weaver:noretry) semantics.
var ErrUnavailable = errors.New("rpc: replica unavailable")

// A TransportError describes a failure of the RPC machinery itself (broken
// connection, unknown method, handler panic), as opposed to an application
// error returned by the component method.
type TransportError struct {
	Addr string
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: call to %s failed: %v", e.Addr, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// A Client issues calls to one server address over a small pool of
// multiplexed TCP connections. Clients are safe for concurrent use and
// transparently reconnect after connection failures.
type Client struct {
	addr     string
	numConns int
	dialer   func(ctx context.Context, addr string) (net.Conn, error)
	opts     ClientOptions

	nextID atomic.Uint64
	rr     atomic.Uint64 // round-robin over conns

	mu     sync.Mutex
	conns  []*clientConn
	closed bool

	txBytes   *metrics.Counter
	rxBytes   *metrics.Counter
	calls     *metrics.Counter
	late      *metrics.Counter // responses nobody waited for any more
	flushHist *metrics.Histogram
	readHist  *metrics.Histogram
}

// ClientOptions configures a Client.
type ClientOptions struct {
	// NumConns is the number of TCP connections to stripe calls over.
	// Striping removes the single-conn serialization of the read loop and
	// the write flusher, so independent callers scale instead of queueing.
	// Zero means min(4, GOMAXPROCS). The stripe set is one logical replica:
	// health probes, breakers, and hedging all see a single address.
	NumConns int
	// Dialer overrides the default TCP dialer (used by tests and the
	// simulated network).
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Compress enables transparent flate compression of payloads of at
	// least DefaultCompressThreshold bytes (paper §5.1: the runtime is free
	// to compress messages on the wire for network-bottlenecked
	// applications). The server mirrors the choice for responses.
	Compress bool
	// Clock supplies the ping timeout timer (and any injected read
	// stalls). Nil means the wall clock; deterministic tests inject a
	// fake so breaker probe paths run without wall-clock sleeps.
	Clock clock.Clock
}

// pingTimeout bounds how long Ping waits for the server's answer.
const pingTimeout = 5 * time.Second

// defaultNumConns picks the stripe width when ClientOptions.NumConns is
// unset: one conn per available CPU up to 4, past which the readLoop and
// flusher stop being the bottleneck.
func defaultNumConns() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewClient returns a client for the server at addr. Connections are
// established lazily on first call.
func NewClient(addr string, opts ClientOptions) *Client {
	if opts.NumConns <= 0 {
		opts.NumConns = defaultNumConns()
	}
	if opts.Dialer == nil {
		var d net.Dialer
		opts.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	opts.Clock = clock.Or(opts.Clock)
	return &Client{
		addr:     addr,
		numConns: opts.NumConns,
		dialer:   opts.Dialer,
		opts:     opts,
		conns:    make([]*clientConn, opts.NumConns),
		txBytes:  metrics.Default.Counter("rpc.client.tx_bytes"),
		rxBytes:  metrics.Default.Counter("rpc.client.rx_bytes"),
		calls:    metrics.Default.Counter("rpc.client.calls"),
		late:     metrics.Default.Counter("rpc.client.late_responses"),

		flushHist: metrics.Default.Histogram("rpc.client.flush_batch_frames", flushBatchBuckets),
		readHist:  metrics.Default.Histogram("rpc.client.read_batch_frames", flushBatchBuckets),
	}
}

// Addr returns the server address this client targets.
func (c *Client) Addr() string { return c.addr }

// CallFramed invokes the remote method identified by id and returns its
// raw result payload. Errors of type *TransportError indicate delivery
// failure; the result payload may itself encode an application error,
// which generated stubs decode.
//
// framed must hold PayloadHeadroom bytes of scratch followed by the
// encoded args (see codec.Encoder.Reserve); the transport fills the
// framing into the scratch in place and writes the buffer with a single
// Write. The headroom bytes are owned by CallFramed until the frame is on
// the wire; the args bytes are only read.
//
// On success the caller owns the returned Response and must call Release
// after decoding; the payload from Response.Data is invalid afterwards.
//
// CallFramed is Start followed by a wait for the verdict or for ctx.
func (c *Client) CallFramed(ctx context.Context, id MethodID, framed []byte, opts CallOptions) (*Response, error) {
	p, err := c.Start(ctx, id, framed, opts)
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-p.Done():
		return p.Result(resp)
	case <-ctx.Done():
		p.Abandon()
		return nil, ctx.Err()
	}
}

// Start sends one request and returns once its frame is on the wire,
// leaving the response to be awaited through the returned Pending. The
// buffer contract is CallFramed's, except that the headroom is free again
// as soon as Start returns: a caller racing two requests over one buffer
// (a hedge) may Start the second right after the first. ctx supplies the
// request deadline and classifies late failures; Start does not watch it,
// so the caller must select on ctx.Done itself and Abandon on cancellation.
//
// Exactly one of Result (with the value received from Done) or Abandon
// must be called on every Pending returned with a nil error.
func (c *Client) Start(ctx context.Context, id MethodID, framed []byte, opts CallOptions) (Pending, error) {
	if len(framed) < PayloadHeadroom {
		return Pending{}, &TransportError{Addr: c.addr, Err: fmt.Errorf("rpc: framed buffer of %d bytes lacks %d bytes of headroom", len(framed), PayloadHeadroom)}
	}
	c.calls.Inc()
	cc, err := c.conn(ctx, opts.Shard)
	if err != nil {
		return Pending{}, &TransportError{Addr: c.addr, Err: err}
	}
	p, err := cc.send(ctx, id, framed, opts)
	if err != nil {
		return Pending{}, c.callError(ctx, err)
	}
	return p, nil
}

// callError maps a failed call to what the caller sees: the context's own
// error once ctx is done (the failure is then most likely its consequence,
// such as a server's "request expired" reply), else a *TransportError.
func (c *Client) callError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &TransportError{Addr: c.addr, Err: err}
}

// Ping verifies liveness of the server with a ping round trip. The probe
// rotates over the stripes, so repeated pings exercise each conn of the
// logical replica in turn.
func (c *Client) Ping(ctx context.Context) error {
	cc, err := c.conn(ctx, 0)
	if err != nil {
		return &TransportError{Addr: c.addr, Err: err}
	}
	if err := cc.ping(ctx); err != nil {
		return &TransportError{Addr: c.addr, Err: err}
	}
	return nil
}

// PendingCalls reports requests — calls and pings — registered on the
// client's connections whose verdict has not been delivered, for tests and
// introspection.
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cc := range c.conns {
		if cc != nil {
			n += cc.pendingCount()
		}
	}
	return n
}

// Close tears down all connections. In-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for i, cc := range c.conns {
		if cc != nil {
			cc.close(ErrShutdown)
			c.conns[i] = nil
		}
	}
	return nil
}

// conn returns a healthy connection, dialing if necessary. Sharded calls
// (shard != 0) stick to an affinity-hashed stripe so one shard's frames
// batch together and stay ordered on one conn; unsharded calls round-robin
// across the stripes.
func (c *Client) conn(ctx context.Context, shard uint64) (*clientConn, error) {
	var slot int
	switch {
	case c.numConns == 1:
		slot = 0
	case shard != 0:
		slot = int(shard % uint64(c.numConns))
	default:
		slot = int(c.rr.Add(1) % uint64(c.numConns))
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrShutdown
	}
	cc := c.conns[slot]
	if cc != nil && !cc.dead() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	// Dial outside the lock; multiple goroutines may race, and the loser's
	// connection is closed.
	conn, err := c.dialer(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	ncc := newClientConn(conn, c)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		ncc.close(ErrShutdown)
		return nil, ErrShutdown
	}
	if cur := c.conns[slot]; cur != nil && !cur.dead() {
		ncc.close(ErrShutdown)
		return cur, nil
	}
	c.conns[slot] = ncc
	return ncc, nil
}

// pendingShards is the stripe count of a clientConn's pending-call table.
// A power of two: a call's shard is its id's low bits, so the id-allocating
// round-robin naturally spreads registration, completion, and cancellation
// across locks instead of serializing every caller on one mutex.
const pendingShards = 8

// A waiter is one pooled completion slot: a reusable buffered channel that
// carries exactly one verdict per registration — a *Response on success,
// nil for conn death. Verdict senders run under the owning shard's lock
// and delete the registration before sending, so when a canceling caller
// finds its registration gone the verdict is already buffered (forget
// drains it); the channel is provably empty whenever the waiter returns to
// the pool, which is what makes reuse hedge-safe.
type waiter struct{ ch chan *Response }

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ch: make(chan *Response, 1)}
}}

// A pendingShard is one stripe of the pending table. failed flips once the
// conn-death sweep has failed the stripe: registration checks it under the
// same lock, so no call can register after (or during) the sweep and wait
// forever on a verdict that will never come.
type pendingShard struct {
	mu     sync.Mutex
	m      map[uint64]*waiter
	failed bool
}

// clientConn is one multiplexed connection with a reader goroutine; writes
// go through a coalescing flusher (see connFlusher) and responses — to
// calls and to pings alike — complete into the sharded pending table.
type clientConn struct {
	conn   net.Conn
	client *Client
	fl     *connFlusher

	shards [pendingShards]pendingShard

	mu  sync.Mutex
	err error // non-nil once broken
}

func (cc *clientConn) shard(id uint64) *pendingShard {
	return &cc.shards[id&(pendingShards-1)]
}

// register claims a pooled waiter slot for call id, or reports the conn's
// death error if the stripe has already been failed.
func (cc *clientConn) register(id uint64) (*waiter, error) {
	w := waiterPool.Get().(*waiter)
	sh := cc.shard(id)
	sh.mu.Lock()
	if sh.failed {
		sh.mu.Unlock()
		waiterPool.Put(w)
		return nil, cc.deathErr()
	}
	sh.m[id] = w
	sh.mu.Unlock()
	return w, nil
}

// complete delivers the verdict for id, reporting whether a waiter claimed
// it. The delete-then-send happens under the shard lock — the invariant
// forget relies on.
func (cc *clientConn) complete(id uint64, resp *Response) bool {
	sh := cc.shard(id)
	sh.mu.Lock()
	w, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
		w.ch <- resp
	}
	sh.mu.Unlock()
	return ok
}

// forget abandons a registration (cancellation or write failure) and pools
// the waiter. If the registration is already gone, its verdict is
// guaranteed buffered in the channel — senders delete-then-send under the
// shard lock — so forget drains and releases it before reusing the slot.
func (cc *clientConn) forget(id uint64, w *waiter) {
	sh := cc.shard(id)
	sh.mu.Lock()
	_, mine := sh.m[id]
	if mine {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !mine {
		if resp := <-w.ch; resp != nil {
			resp.Release()
		}
	}
	waiterPool.Put(w)
}

// pendingCount reports registered-but-unanswered calls, for tests.
func (cc *clientConn) pendingCount() int {
	n := 0
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// A Response is the result of a successful CallFramed. Its payload aliases
// a pooled read buffer: the caller owns the Response until Release, after
// which the payload is invalid and may be overwritten by a later call.
// Anything retained past Release must be copied out first.
type Response struct {
	status   byte
	released bool
	data     []byte
	rb       *readBuf // batched read buffer the payload aliases
}

var responsePool = sync.Pool{New: func() any { return new(Response) }}

func newResponse() *Response {
	r := responsePool.Get().(*Response)
	r.released = false
	return r
}

// Data returns the result payload. The slice is invalidated by Release.
func (r *Response) Data() []byte { return r.data }

// Release drops the response's reference to its batched read buffer. It
// panics on double release: that is always an ownership bug that would
// otherwise surface as silent payload corruption.
func (r *Response) Release() {
	if r.released {
		panic("rpc: Response released twice")
	}
	r.released = true
	r.status = 0
	r.data = nil
	if r.rb != nil {
		r.rb.release()
		r.rb = nil
	}
	responsePool.Put(r)
}

func newClientConn(conn net.Conn, c *Client) *clientConn {
	cc := &clientConn{
		conn:   conn,
		client: c,
		fl:     newConnFlusher(conn, c.txBytes, c.flushHist, nil, nil),
	}
	// A failed write kills the conn, so its pending calls fail now and
	// later calls redial instead of reusing it.
	cc.fl.onFail = cc.close
	for i := range cc.shards {
		cc.shards[i].m = map[uint64]*waiter{}
	}
	go cc.readLoop()
	return cc
}

func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// deathErr reports why the conn died, for calls that observe its death.
func (cc *clientConn) deathErr() error {
	cc.mu.Lock()
	err := cc.err
	cc.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("connection closed")
	}
	return err
}

// close marks the connection broken and fails all pending calls: the
// death error is recorded first (under cc.mu), then every shard is swept —
// failed is set and a nil verdict delivered under each shard's lock, so a
// registration either lands before the sweep (and is failed by it) or
// observes failed and reports the recorded error. No waiter strands.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	cc.mu.Unlock()

	cc.conn.Close()
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.Lock()
		sh.failed = true
		for id, w := range sh.m {
			delete(sh.m, id)
			w.ch <- nil
		}
		sh.mu.Unlock()
	}
}

func (cc *clientConn) readLoop() {
	// One batched Read commonly drains every response the server's flusher
	// coalesced into a segment; each frame is sliced out of the shared
	// pooled buffer and carries a reference to it. A claimed response hands
	// its reference to the waiting caller, who releases after decoding;
	// unclaimed frames (caller canceled, malformed) release here.
	fr := newFrameReader(cc.conn, cc.client.readHist, nil, cc.client.opts.Clock)
	defer fr.close()
	for {
		frame, rb, err := fr.next()
		if err != nil {
			cc.close(err)
			return
		}
		cc.client.rxBytes.Add(uint64(len(frame)))
		if len(frame) == 0 {
			rb.release()
			continue
		}
		typ, payload := frame[0], frame[1:]
		switch typ {
		case frameResponse:
			if len(payload) < 9 {
				rb.release()
				continue
			}
			id := getUint64(payload)
			resp := newResponse()
			resp.status = payload[8]
			resp.data = payload[9:]
			resp.rb = rb
			if !cc.complete(id, resp) {
				// The caller abandoned the call (a hedge loser, or
				// cancellation) before its answer arrived.
				resp.Release()
				cc.client.late.Inc()
			}
		default:
			rb.release()
		}
	}
}

// send registers a waiter for one request and writes its frame, returning
// once the frame is on the wire. framed carries PayloadHeadroom bytes of
// scratch ahead of the args; the frame is built in that scratch and
// written in place, from the caller's buffer or, when the args are
// compressed, from the compressor's, which reserves the same headroom.
func (cc *clientConn) send(ctx context.Context, method MethodID, framed []byte, opts CallOptions) (Pending, error) {
	id := cc.client.nextID.Add(1)
	hdr := header{
		id:     id,
		method: method,
		trace:  uint64(opts.Trace.Trace),
		span:   uint64(opts.Trace.Span),
		parent: uint64(opts.Trace.Parent),
		shard:  opts.Shard,
		meta:   opts.Meta,
	}
	if opts.Trace.Sampled {
		hdr.flags |= flagSampled
	}
	if dl, ok := ctx.Deadline(); ok {
		hdr.deadline = dl.UnixNano()
	}
	var comp *compressor
	if cc.client.opts.Compress {
		// Advertise response compression; compress the request itself when
		// it is big enough to be worth the CPU.
		hdr.flags |= flagAcceptCompressed
		if len(framed)-PayloadHeadroom >= DefaultCompressThreshold {
			if small, c, ok := compress(framed[PayloadHeadroom:], PayloadHeadroom); ok {
				framed, comp = small, c
				hdr.flags |= flagPayloadCompressed
			}
		}
	}

	w, err := cc.register(id)
	if err != nil {
		if comp != nil {
			comp.release()
		}
		return Pending{}, err
	}

	// The headroom is filled right-aligned: the header (and its meta
	// extension, 0 to metaExtMax bytes) ends exactly where the args begin,
	// and the frame start shifts right over whatever extension space is
	// unused, so the args never move and default-meta calls write the
	// exact frame they always did.
	start := PayloadHeadroom - (1 + headerSize + hdr.meta.extSize())
	framed[start] = frameRequest
	hdr.encode(framed[start+1 : PayloadHeadroom])
	werr := cc.fl.writeFramed(framed[start-4:])
	if comp != nil {
		// writeFramed blocks until the frame is on the wire (or
		// abandoned), so the compressor's buffer is quiescent here.
		comp.release()
	}
	if werr != nil {
		cc.forget(id, w)
		return Pending{}, werr
	}
	return Pending{cc: cc, w: w, id: id, ctx: ctx}, nil
}

// A Pending is one request whose frame is on the wire and whose verdict
// has not been consumed. It is a small value: a caller may race several
// (a hedge) in one select on its own goroutine, with no goroutine,
// channel or context per request. A Pending is dead after Result or
// Abandon, and must meet exactly one of them.
type Pending struct {
	cc  *clientConn
	w   *waiter
	id  uint64
	ctx context.Context
}

// Done returns the channel that delivers the request's verdict: a
// *Response, or nil if the connection died. Pass the received value to
// Result.
func (p Pending) Done() <-chan *Response { return p.w.ch }

// Result interprets a verdict received from Done and retires the Pending.
// On success the caller owns the Response and must Release it. Errors are
// *TransportErrors (ErrOverloaded and ErrUnavailable among them), or the
// context's error when the request's ctx is already done.
func (p Pending) Result(resp *Response) (*Response, error) {
	cc := p.cc
	// The channel is empty again: the slot can serve the next call.
	waiterPool.Put(p.w)
	var err error
	if resp == nil {
		// Conn-death verdict from the close sweep.
		return nil, cc.client.callError(p.ctx, cc.deathErr())
	}
	switch resp.status {
	case statusError:
		err = fmt.Errorf("%s", resp.data)
	case statusOverloaded:
		err = ErrOverloaded
	case statusUnavailable:
		err = ErrUnavailable
	case statusOKCompressed:
		data, derr := decompress(resp.data)
		if derr != nil {
			err = derr
			break
		}
		// The payload moved to a fresh heap slice: drop the shared
		// read-buffer reference now instead of pinning a batch buffer
		// for as long as the caller holds the Response.
		resp.data = data
		if resp.rb != nil {
			resp.rb.release()
			resp.rb = nil
		}
	}
	if err != nil {
		resp.Release()
		return nil, cc.client.callError(p.ctx, err)
	}
	return resp, nil
}

// Abandon gives up on the request and retires the Pending: it tells the
// server to stop working on it with a cancel frame, and reclaims a
// concurrently delivered response so the read buffer is not stranded and
// the waiter slot is clean before it is reused (hedge losers land here
// routinely).
func (p Pending) Abandon() {
	cc := p.cc
	cc.forget(p.id, p.w)
	_ = cc.fl.writeControl(frameCancel, p.id)
}

// ping sends a ping frame and awaits its answer — a statusOK response
// whose id is the ping's nonce — in the pending table like any call,
// bounded by pingTimeout on the client's Clock.
func (cc *clientConn) ping(ctx context.Context) error {
	nonce := cc.client.nextID.Add(1)
	w, err := cc.register(nonce)
	if err != nil {
		return err
	}
	if err := cc.fl.writeControl(framePing, nonce); err != nil {
		cc.forget(nonce, w)
		return err
	}

	timer := cc.client.opts.Clock.NewTimer(pingTimeout)
	defer timer.Stop()
	select {
	case resp := <-w.ch:
		waiterPool.Put(w)
		if resp == nil {
			return cc.deathErr()
		}
		resp.Release()
		return nil
	case <-ctx.Done():
		cc.forget(nonce, w)
		return ctx.Err()
	case <-timer.C():
		cc.forget(nonce, w)
		return fmt.Errorf("ping timeout")
	}
}
