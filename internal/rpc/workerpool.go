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
// deadline is tracked by the server's single timer wheel (reqCtx embeds
// the wheel entry and implements clock.Expirer), and cancellation — by
// cancel frame, conn death, or expiry — flips one mutex-guarded error.
// The done channel is created only if someone asks for it, so requests
// whose handlers never select on ctx.Done() pay no channel allocation.
//
// The reqCtx also carries the call's CallInfo, span context included, as
// fields rather than as context values: dispatch fills info once, before
// the handler runs, and nothing writes it afterwards. InfoFromContext and
// tracing.FromContext read the fields directly (reqCtx is a
// tracing.Carrier), and Value answers both keys, so a context a handler
// derives from this one still resolves them. Serving a request therefore
// allocates one context, this struct, instead of one per layer.
//
// reqCtxs are deliberately not pooled: a recycled context reachable from a
// stale wheel entry or a straggling handler would be a use-after-free; one
// small allocation per request is far cheaper than the timer and goroutine
// it replaces.
type reqCtx struct {
	clk      clock.Clock
	wheel    *clock.Wheel
	deadline time.Time // zero when the request carries none
	entry    clock.WheelEntry

	info    CallInfo // set by dispatch before the handler runs
	hasInfo bool

	mu   sync.Mutex
	done chan struct{} // lazily created
	err  error
}

var _ tracing.Carrier = (*reqCtx)(nil)
var _ clock.Expirer = (*reqCtx)(nil)

func (rc *reqCtx) Deadline() (time.Time, bool) { return rc.deadline, !rc.deadline.IsZero() }

func (rc *reqCtx) Done() <-chan struct{} {
	rc.mu.Lock()
	if rc.done == nil {
		rc.done = make(chan struct{})
		if rc.err != nil {
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
	err := rc.err
	if err == nil && !rc.deadline.IsZero() && !rc.clk.Now().Before(rc.deadline) {
		err = context.DeadlineExceeded
		rc.err = err
		if rc.done != nil {
			close(rc.done)
		}
	}
	rc.mu.Unlock()
	return err
}

// Value answers the CallInfo and span-context keys from rc's fields. It
// boxes its answer, so it serves only contexts derived from rc; callers
// holding rc itself take the field fast paths.
func (rc *reqCtx) Value(key any) any {
	if !rc.hasInfo {
		return nil
	}
	if _, ok := key.(callInfoKey); ok {
		return rc.info
	}
	if tracing.IsKey(key) && rc.info.Trace.Valid() {
		return rc.info.Trace
	}
	return nil
}

// SpanContext implements tracing.Carrier.
func (rc *reqCtx) SpanContext() (tracing.SpanContext, bool) {
	return rc.info.Trace, rc.info.Trace.Valid()
}

func (rc *reqCtx) cancel(err error) {
	rc.mu.Lock()
	if rc.err == nil {
		rc.err = err
		if rc.done != nil {
			close(rc.done)
		}
	}
	rc.mu.Unlock()
}

// Expire is the wheel's deadline callback.
func (rc *reqCtx) Expire() { rc.cancel(context.DeadlineExceeded) }

// finish retires the context after its request completes: the wheel entry
// is unlinked (O(1)) and any late Done waiters are released.
func (rc *reqCtx) finish() {
	if !rc.deadline.IsZero() {
		rc.wheel.Stop(&rc.entry)
	}
	rc.cancel(context.Canceled)
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
		rc.cancel(context.Canceled)
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
		rc.cancel(context.Canceled)
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
