package rpc

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/tracing"
)

// A reqCtx is the context.Context of one in-flight server request. It
// replaces the per-request context.WithDeadline + goroutine pair: the wire
// deadline is tracked by the server's single timer wheel (reqCtx
// implements clock.Expirer), and cancellation — by cancel frame, conn
// death, or expiry — flips one mutex-guarded state. The done channel is
// created only if someone asks for it, so requests whose handlers never
// select on ctx.Done() pay no channel allocation. A nested call the
// handler makes on this context does not ask for it: Client.CallFramed
// registers its reply waiter with the context instead (await), and the
// end of the request delivers a cancel verdict into that waiter.
//
// The layout holds only what a context reads, 96 bytes in all:
//
//   - s reaches the server's clock and timer wheel.
//   - deadline is the wire deadline in Unix nanoseconds, 0 when the
//     request carries none; Deadline builds the time.Time on demand.
//   - entry is the wheel entry, allocated and scheduled by newReqCtx only
//     for a request that carries a deadline, so the common deadline-free
//     request does not pay for it.
//   - h, the span context (trace, span, parent and sampled, flattened so
//     the Sampled bit packs beside state), shard and meta are the call's
//     CallInfo, stored as fields by dispatch before the handler runs and
//     never written afterwards. InfoFromContext and tracing.FromContext
//     read them directly (reqCtx is a tracing.Carrier), and Value
//     assembles the CallInfo for contexts a handler derives from this one.
//   - nested is the waiter of the one nested call awaiting its reply
//     under this context, nil when there is none.
//   - state records why the context ended. Err can only ever answer
//     context.Canceled or context.DeadlineExceeded, so one byte stands
//     in for an error interface's sixteen and keeps the struct in the
//     96-byte size class.
//
// reqCtxs are deliberately not pooled. A stale holder may still read the
// context after its handler returns: the goroutine context.WithCancel
// starts for a parent it does not recognise, for one, calls parent.Err()
// after Done closes. A recycled reqCtx would answer nil there, and the
// context package panics on a nil cancel error. Shrinking the struct
// saves the bytes without that hazard; one small allocation per request
// is far cheaper than the timer and goroutine it replaces.
type reqCtx struct {
	s        *Server
	deadline int64             // Unix ns; 0 when the request carries none
	entry    *clock.WheelEntry // non-nil iff deadline != 0

	h      *registeredHandler // nil until dispatch resolves the method
	trace  tracing.TraceID
	span   tracing.SpanID
	parent tracing.SpanID
	shard  uint64

	nested *waiter // guarded by mu

	meta    CallMeta
	state   ctxState
	sampled bool
	mu      sync.Mutex
	done    chan struct{} // lazily created
}

// A ctxState is why a reqCtx ended, or ctxLive while it runs.
type ctxState uint8

const (
	ctxLive ctxState = iota
	ctxCanceled
	ctxExpired
)

func (st ctxState) err() error {
	switch st {
	case ctxCanceled:
		return context.Canceled
	case ctxExpired:
		return context.DeadlineExceeded
	}
	return nil
}

var _ tracing.Carrier = (*reqCtx)(nil)
var _ clock.Expirer = (*reqCtx)(nil)

// newReqCtx returns the context for one request frame, its deadline
// already on the server's wheel. It is the only place a reqCtx is built
// (make lint rejects a reqCtx literal anywhere else in the package), so
// TestAllocsServerDispatch measures exactly what the read loop allocates.
func newReqCtx(s *Server, hdr header) *reqCtx {
	rc := &reqCtx{s: s, deadline: hdr.deadline}
	if hdr.deadline != 0 {
		rc.entry = new(clock.WheelEntry)
		s.wheel.Schedule(rc.entry, time.Unix(0, hdr.deadline), rc)
	}
	return rc
}

func (rc *reqCtx) Deadline() (time.Time, bool) {
	if rc.deadline == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, rc.deadline), true
}

func (rc *reqCtx) Done() <-chan struct{} {
	rc.mu.Lock()
	if rc.done == nil {
		rc.done = make(chan struct{})
		if rc.state != ctxLive {
			close(rc.done)
		}
	}
	d := rc.done
	rc.mu.Unlock()
	return d
}

// Err reports expiry as soon as the clock passes the deadline, even before
// the wheel's quantized tick fires — callers polling Err get exact
// deadlines, only Done waiters see tick granularity.
func (rc *reqCtx) Err() error {
	rc.mu.Lock()
	if rc.state == ctxLive && rc.deadline != 0 && rc.s.opts.Clock.Now().UnixNano() >= rc.deadline {
		rc.endLocked(ctxExpired)
	}
	st := rc.state
	rc.mu.Unlock()
	return st.err()
}

// info assembles the CallInfo dispatch stored as fields.
func (rc *reqCtx) info() CallInfo {
	return CallInfo{Method: rc.h.name, Trace: rc.spanContext(), Shard: rc.shard, Meta: rc.meta}
}

// spanContext assembles the inbound span context from its fields.
func (rc *reqCtx) spanContext() tracing.SpanContext {
	return tracing.SpanContext{Trace: rc.trace, Span: rc.span, Parent: rc.parent, Sampled: rc.sampled}
}

// Value answers the CallInfo and span-context keys from rc's fields. It
// boxes its answer, so it serves only contexts derived from rc; callers
// holding rc itself take the field fast paths.
func (rc *reqCtx) Value(key any) any {
	if rc.h == nil {
		return nil
	}
	if _, ok := key.(callInfoKey); ok {
		return rc.info()
	}
	if tracing.IsKey(key) && rc.trace != 0 {
		return rc.spanContext()
	}
	return nil
}

// SpanContext implements tracing.Carrier.
func (rc *reqCtx) SpanContext() (tracing.SpanContext, bool) {
	return rc.spanContext(), rc.trace != 0
}

// end ends a live context with st and releases its waiters: a cancel
// frame or conn death (ctxCanceled), expiry, or the request finishing.
func (rc *reqCtx) end(st ctxState) {
	rc.mu.Lock()
	if rc.state == ctxLive {
		rc.endLocked(st)
	}
	rc.mu.Unlock()
}

// endLocked ends the live context with st, rc.mu held: it closes Done if
// anyone made it, and delivers the cancel verdict to a nested call
// awaiting under rc. The verdict goes through the pending table's
// complete, so it is delete-then-send under the shard lock like any
// other: it lands only while the call is still registered, and a reply
// that won the shard lock first reaches the call instead.
func (rc *reqCtx) endLocked(st ctxState) {
	rc.state = st
	if rc.done != nil {
		close(rc.done)
	}
	if w := rc.nested; w != nil {
		w.cc.complete(w.id, canceledVerdict)
	}
}

// await waits for the verdict of p, a call made under rc, without making
// rc's done channel: it registers p's waiter with rc and receives from it
// alone, while end delivers canceledVerdict should the request end
// first. It reports false, having waited for nothing, when rc has already
// ended or another nested call is registered; the caller then selects on
// Done as for any other context.
func (rc *reqCtx) await(p Pending) (*Response, bool) {
	rc.mu.Lock()
	if rc.state != ctxLive || rc.nested != nil {
		rc.mu.Unlock()
		return nil, false
	}
	p.w.cc, p.w.id = p.cc, p.id
	rc.nested = p.w
	rc.mu.Unlock()
	resp := <-p.w.ch
	// Deregister before the waiter can return to the pool: end reads it
	// under rc.mu, so it never completes an id of the slot's next call.
	rc.mu.Lock()
	rc.nested = nil
	rc.mu.Unlock()
	return resp, true
}

// Expire is the wheel's deadline callback.
func (rc *reqCtx) Expire() { rc.end(ctxExpired) }

// finish retires the context after its request completes: the wheel entry
// is unlinked (O(1)) and any late Done waiters are released.
func (rc *reqCtx) finish() {
	if rc.entry != nil {
		rc.s.wheel.Stop(rc.entry)
	}
	rc.end(ctxCanceled)
}

// connState tracks one server connection's in-flight requests, replacing
// the old per-conn sync.Map of cancel funcs: cancel frames and conn death
// resolve ids to reqCtxs here, and the WaitGroup holds conn teardown until
// every dispatched request has finished writing its response.
type connState struct {
	wg sync.WaitGroup

	mu sync.Mutex
	m  map[uint64]*reqCtx
}

func newConnState() *connState { return &connState{m: map[uint64]*reqCtx{}} }

func (st *connState) add(id uint64, rc *reqCtx) {
	st.mu.Lock()
	st.m[id] = rc
	st.mu.Unlock()
}

func (st *connState) remove(id uint64) {
	st.mu.Lock()
	delete(st.m, id)
	st.mu.Unlock()
}

// cancel cancels one in-flight request (explicit cancel frame).
func (st *connState) cancel(id uint64) {
	st.mu.Lock()
	rc := st.m[id]
	st.mu.Unlock()
	if rc != nil {
		rc.end(ctxCanceled)
	}
}

// cancelAll cancels everything still running — the caller is gone.
func (st *connState) cancelAll() {
	st.mu.Lock()
	rcs := make([]*reqCtx, 0, len(st.m))
	for _, rc := range st.m {
		rcs = append(rcs, rc)
	}
	st.mu.Unlock()
	for _, rc := range rcs {
		rc.end(ctxCanceled)
	}
}

// reqWork is one dispatched request. It travels by value through a
// worker's channel, so handing a request to the pool allocates nothing.
type reqWork struct {
	s    *Server
	fl   *connFlusher
	st   *connState
	rc   *reqCtx
	rb   *readBuf
	hdr  header
	args []byte
}

// run executes the request and tears it down: the args buffer reference is
// dropped only after the response is on the wire (handlers may alias args
// in their results), and the conn's WaitGroup releases last.
func (wk reqWork) run() {
	wk.s.handleRequest(wk.rc, wk.fl, wk.hdr, wk.args)
	wk.st.remove(wk.hdr.id)
	wk.rc.finish()
	wk.rb.release()
	wk.st.wg.Done()
}

// A workerPool runs requests on reusable goroutines instead of spawning
// one per request. Idle workers park on a LIFO stack (the hottest worker —
// warmest stacks and caches — is reused first); at the cap, or after stop,
// submit falls back to a plain goroutine, so the pool bounds goroutine
// churn without ever deadlocking dispatch. Workers may block in admission
// queues; the cap is sized so admission's own bounds (MaxInflight +
// MaxQueue) can never pin the whole pool.
type workerPool struct {
	mu      sync.Mutex
	idle    []*poolWorker
	n       int // live workers
	cap     int
	stopped bool
}

type poolWorker struct {
	pool *workerPool
	ch   chan reqWork
}

func newWorkerPool(cap int) *workerPool {
	return &workerPool{cap: cap}
}

func (p *workerPool) submit(wk reqWork) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.ch <- wk
		return
	}
	if p.stopped || p.n >= p.cap {
		p.mu.Unlock()
		go wk.run()
		return
	}
	p.n++
	p.mu.Unlock()
	w := &poolWorker{pool: p, ch: make(chan reqWork, 1)}
	w.ch <- wk
	go w.loop()
}

func (w *poolWorker) loop() {
	for wk := range w.ch {
		wk.run()
		p := w.pool
		p.mu.Lock()
		if p.stopped {
			p.n--
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, w)
		p.mu.Unlock()
	}
}

// stop drains the pool: parked workers exit, and workers finishing a
// request exit instead of re-parking. Safe to call with requests still
// running; they complete on their current goroutine.
func (p *workerPool) stop() {
	p.mu.Lock()
	p.stopped = true
	idle := p.idle
	p.idle = nil
	p.n -= len(idle)
	p.mu.Unlock()
	for _, w := range idle {
		close(w.ch)
	}
}
