package rpc

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/tracing"
)

// A served request's context is a 16-byte handle, reqCtx, over request
// state that the worker pool recycles, a reqSlot. Each pool worker owns one
// slot and reuses it for every request it runs; a request served past the
// pool's cap gets a slot of its own. The handle replaces the per-request
// context.WithDeadline + goroutine pair: the wire deadline is tracked by
// the server's single timer wheel (reqCtx implements clock.Expirer), and
// cancellation — by cancel frame, conn death, or expiry — flips one
// mutex-guarded state. The done channel is created only if someone asks
// for it, so requests whose handlers never select on ctx.Done() pay no
// channel allocation. A nested call the handler makes on this context does
// not ask for it: Client.CallFramed registers its reply waiter with the
// context instead (await), and the end of the request delivers a cancel
// verdict into that waiter.
//
// A handle may outlive its request: a goroutine the handler leaked, the
// goroutine context.WithCancel starts for a parent it does not recognise
// (it calls parent.Err() after Done closes), a late cancel frame, or a
// late wheel expiry. Such a stale holder must never reach the slot's next
// request. So every handle method locks the slot and checks slot.cur ==
// rc, an identity check with no generation counter to wrap, and the end of
// a request writes its final state into the handle before finish clears
// the slot. A stale holder then gets a closed Done, its own request's
// Canceled or DeadlineExceeded from Err, no deadline and no call values.
type reqCtx struct {
	// The slot is embedded so that the slot's owner, the worker serving
	// rc, reads its fields directly. Anyone else goes through rc's
	// methods, which check that rc is still the slot's request.
	*reqSlot
	state ctxState // guarded by mu; final once the request has ended
}

// A reqSlot holds what a served request's context reads:
//
//   - s reaches the server's clock and timer wheel.
//   - cur is the handle of the request the slot serves, nil between
//     requests.
//   - deadline is the wire deadline in Unix nanoseconds, 0 when the
//     request carries none; Deadline builds the time.Time on demand.
//   - entry is the wheel entry, scheduled by newReqCtx only for a request
//     that carries a deadline and unlinked by finish. A wheel that already
//     took the entry off its list to fire it holds the handle it was
//     scheduled with, so a late Expire ends nothing of the next request.
//   - h, the span context (trace, span, parent and sampled), shard and meta
//     are the call's CallInfo, stored as fields by dispatch before the
//     handler runs and never written again before finish. InfoFromContext
//     and tracing.FromContext read them (reqCtx is a tracing.Carrier), and
//     Value assembles the CallInfo for contexts a handler derives from the
//     handle.
//   - nested is the waiter of the one nested call awaiting its reply under
//     the current request, nil when there is none.
//
// cur, deadline, nested and done are guarded by mu.
type reqSlot struct {
	s        *Server
	cur      *reqCtx
	deadline int64 // Unix ns; 0 when the request carries none
	entry    clock.WheelEntry

	h      *registeredHandler // nil until dispatch resolves the method
	trace  tracing.TraceID
	span   tracing.SpanID
	parent tracing.SpanID
	shard  uint64

	nested *waiter

	meta    CallMeta
	sampled bool
	mu      sync.Mutex
	done    chan struct{} // lazily created
}

// A ctxState is why a request ended, or ctxLive while it runs. A live
// handle is always its slot's current request: finish ends a request
// before it clears the slot.
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

// closedDone is the Done of every stale handle.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

var _ tracing.Carrier = (*reqCtx)(nil)
var _ clock.Expirer = (*reqCtx)(nil)

// A slotSource supplies the slot a request runs in: a pool worker's slot
// lends itself, and a Server makes a fresh one for a request served off
// the pool.
type slotSource interface{ takeSlot() *reqSlot }

func (sl *reqSlot) takeSlot() *reqSlot { return sl }

func (s *Server) takeSlot() *reqSlot { return &reqSlot{s: s} }

// newReqCtx starts one request frame in the slot src supplies, which must
// be free, and returns its handle, the deadline already on the server's
// wheel. It is the only place a handle is built (make lint rejects a
// reqCtx literal anywhere else in the package), so TestAllocsServerDispatch
// measures exactly what the read loop allocates per request: the handle
// alone.
func newReqCtx(src slotSource, hdr header) *reqCtx {
	sl := src.takeSlot()
	rc := &reqCtx{reqSlot: sl}
	sl.mu.Lock()
	if sl.cur != nil {
		sl.mu.Unlock()
		panic("rpc: request slot already serves a request")
	}
	sl.cur = rc
	sl.deadline = hdr.deadline
	sl.mu.Unlock()
	if hdr.deadline != 0 {
		sl.s.wheel.Schedule(&sl.entry, time.Unix(0, hdr.deadline), rc)
	}
	return rc
}

func (rc *reqCtx) Deadline() (time.Time, bool) {
	rc.mu.Lock()
	var d int64
	if rc.cur == rc {
		d = rc.deadline
	}
	rc.mu.Unlock()
	if d == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, d), true
}

func (rc *reqCtx) Done() <-chan struct{} {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.cur != rc {
		return closedDone
	}
	if rc.done == nil {
		rc.done = make(chan struct{})
		if rc.state != ctxLive {
			close(rc.done)
		}
	}
	return rc.done
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

// dispatchedLocked reports, rc.mu held, whether rc is the slot's request
// and dispatch has stored its call fields.
func (rc *reqCtx) dispatchedLocked() bool { return rc.cur == rc && rc.h != nil }

// callInfo is InfoFromContext's answer for rc.
func (rc *reqCtx) callInfo() (CallInfo, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.dispatchedLocked() {
		return CallInfo{}, false
	}
	return rc.info(), true
}

// info assembles the CallInfo dispatch stored as fields.
func (rc *reqCtx) info() CallInfo {
	return CallInfo{Method: rc.h.name, Trace: rc.spanContext(), Shard: rc.shard, Meta: rc.meta}
}

// spanContext assembles the inbound span context from its fields.
func (rc *reqCtx) spanContext() tracing.SpanContext {
	return tracing.SpanContext{Trace: rc.trace, Span: rc.span, Parent: rc.parent, Sampled: rc.sampled}
}

// Value answers the CallInfo and span-context keys from the slot's fields.
// It boxes its answer, so it serves only contexts derived from rc; callers
// holding rc itself take the field fast paths.
func (rc *reqCtx) Value(key any) any {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.dispatchedLocked() {
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
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.dispatchedLocked() || rc.trace == 0 {
		return tracing.SpanContext{}, false
	}
	return rc.spanContext(), true
}

// end ends a live request with st and releases its waiters: a cancel
// frame or conn death (ctxCanceled), expiry, or the request finishing. On
// a handle whose request has already ended it does nothing.
func (rc *reqCtx) end(st ctxState) {
	rc.mu.Lock()
	if rc.state == ctxLive {
		rc.endLocked(st)
	}
	rc.mu.Unlock()
}

// endLocked ends the live request with st, rc.mu held: it closes Done if
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
	// Once rc has finished, finish has cleared the registration, and the
	// slot's field may already hold a later request's nested call.
	rc.mu.Lock()
	if rc.cur == rc {
		rc.nested = nil
	}
	rc.mu.Unlock()
	return resp, true
}

// Expire is the wheel's deadline callback.
func (rc *reqCtx) Expire() { rc.end(ctxExpired) }

// finish retires the request after it completes and frees its slot: the
// wheel entry is unlinked (O(1)), any late Done waiters are released, and
// the handle keeps the request's final state for its stale holders. On a
// handle already finished it does nothing.
func (rc *reqCtx) finish() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.cur != rc {
		return
	}
	if rc.deadline != 0 {
		rc.s.wheel.Stop(&rc.entry)
	}
	if rc.state == ctxLive {
		rc.endLocked(ctxCanceled)
	}
	rc.cur, rc.h, rc.nested, rc.done = nil, nil, nil, nil
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
	rc   *reqCtx // set by start, once the request has its slot
	rb   *readBuf
	hdr  header
	args []byte
}

// start builds the request's handle in the slot src supplies and
// registers it with the conn, so cancel frames and conn death find it.
func (wk reqWork) start(src slotSource) reqWork {
	wk.rc = newReqCtx(src, wk.hdr)
	wk.st.add(wk.hdr.id, wk.rc)
	return wk
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
//
// Each worker owns the request slot its requests' contexts live in. A
// worker is idle only between requests, once finish has freed its slot,
// so submit starts the next request in the slot of the worker it picks;
// only a request on a plain goroutine gets a slot of its own.
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
	slot reqSlot
}

func newWorkerPool(cap int) *workerPool {
	return &workerPool{cap: cap}
}

// submit picks a worker for wk, starts the request in that worker's slot
// and hands it over.
func (p *workerPool) submit(wk reqWork) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.ch <- wk.start(&w.slot)
		return
	}
	if p.stopped || p.n >= p.cap {
		p.mu.Unlock()
		go wk.start(wk.s).run()
		return
	}
	p.n++
	p.mu.Unlock()
	w := &poolWorker{pool: p, ch: make(chan reqWork, 1)}
	w.slot.s = wk.s
	w.ch <- wk.start(&w.slot)
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
