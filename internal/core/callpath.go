// Client call path: the mechanics the paper assigns to the runtime (§5)
// as a fixed sequence of method calls. Invoke calls retry, which runs the
// attempt loop and calls hedge per attempt, which races one or two
// transport legs. Every leg's replica comes from one picker, pick, which
// prefers closed breakers, and each leg holds its replica's table entry
// from the pick to its outcome. A per-call *callMeta carries the state
// the steps share; its wire-visible fields ride the request header.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/codegen"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// callMeta is the per-call state shared by retry, hedge and transport.
// The wire-visible subset — priority class, attempt ordinal, span
// context with its sampled bit, plus each leg's hedge marker — reaches the
// request header through callOptions; the rest is routing and buffer state
// the steps coordinate through.
type callMeta struct {
	// Component and Method identify the call; MethodID is its wire hash.
	Component string
	Method    *codegen.MethodSpec
	MethodID  rpc.MethodID

	// Shard carries the routing affinity key when HasShard is set.
	Shard    uint64
	HasShard bool

	// Priority is the method's admission class, from the
	// weaver:priority=... directive via codegen.MethodSpec.Priority.
	Priority rpc.Priority

	// Trace is the span context that rides the wire, including the root
	// tracer's sampling decision.
	Trace tracing.SpanContext

	// Attempt counts executing transport attempts (0 = first send) and is
	// carried on the wire; Sheds counts attempts the server refused
	// without executing (overload, drain), which consume a separate
	// budget and never threaten at-most-once semantics.
	Attempt int
	Sheds   int

	// tried records the table entries already attempted, so retries and
	// the hedge leg prefer fresh ones; nTried counts its filled prefix.
	// Only the calling goroutine touches it. Each pass of the retry loop
	// adds one entry and a hedge one more, so maxTried holds every entry a
	// call can try; an overflow would only weaken a preference, never
	// break a call.
	tried  [maxTried]*replica
	nTried int

	// framed is the pooled request buffer (args behind PayloadHeadroom).
	// rpc.Client.Start returns only once a frame is on the wire, so every
	// attempt and both hedge legs fill the same headroom in turn.
	framed []byte
}

// maxTried bounds the entries a call records as tried: the attempt and
// shed budgets allow at most 2*transportAttempts-1 passes of the retry
// loop, and the first pass may add one hedge replica.
const maxTried = 2 * transportAttempts

func (m *callMeta) wasTried(r *replica) bool {
	for _, t := range m.tried[:m.nTried] {
		if t == r {
			return true
		}
	}
	return false
}

func (m *callMeta) markTried(r *replica) {
	if m.nTried < len(m.tried) {
		m.tried[m.nTried] = r
		m.nTried++
	}
}

// callOptions maps the call's wire metadata (span context, priority,
// attempt, hedge flag) onto the rpc layer for one leg.
func (m *callMeta) callOptions(hedge bool) rpc.CallOptions {
	var opts rpc.CallOptions
	if m.HasShard {
		opts.Shard = m.Shard
	}
	opts.Trace = m.Trace
	attempt := m.Attempt
	if attempt > 255 {
		attempt = 255
	}
	opts.Meta = rpc.CallMeta{Priority: m.Priority, Attempt: uint8(attempt), Hedge: hedge}
	return opts
}

// retry owns the attempt loop: per attempt it picks a replica
// (waiting out noReplicaGrace when the set is empty, preferring replicas
// not yet tried) and classifies failures. Server sheds and unavailable
// replies never executed, so they draw on a budget separate from
// executing attempts — which at-most-once methods get exactly one of.
func (c *DataPlaneConn) retry(ctx context.Context, m *callMeta) (*rpc.Response, error) {
	execBudget := transportAttempts
	if m.Method.NoRetry {
		// Non-idempotent method (weaver:noretry): at-most-once delivery.
		execBudget = 1
	}

	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// ctx.Err lags the deadline until the context's timer fires, and
		// a server's "request expired" reply often arrives first as a
		// transport error. Retrying then would send an attempt with no
		// time left and charge its expiry to a blameless replica.
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return nil, context.DeadlineExceeded
		}
		r, err := c.pickWithGrace(ctx, m)
		if err != nil {
			return nil, err
		}
		m.markTried(r)

		resp, err := c.hedge(ctx, m, r)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, rpc.ErrOverloaded) || errors.Is(err, rpc.ErrUnavailable) {
			m.Sheds++
			if m.Sheds >= transportAttempts {
				break
			}
		} else {
			var te *rpc.TransportError
			if !errors.As(err, &te) {
				return nil, err // context cancellation or application-visible error
			}
			m.Attempt++
			if m.Attempt >= execBudget {
				break
			}
		}
	}
	return nil, fmt.Errorf("core: %s.%s failed after %d attempts: %w",
		ShortName(m.Component), m.Method.Name, m.Attempt+m.Sheds, lastErr)
}

// hedge runs one attempt whose primary leg goes to r, which pick returned
// with the leg's reference held. It races a second attempt against a
// different replica when the first has not answered within the hedge
// delay (adaptive p99 unless configured). First response wins; the loser
// is abandoned with an explicit cancel frame — and servers may drop a
// queued hedge whose caller has thus gone away. Only the first attempt of an idempotent method is
// hedged, and only while the replica table holds a second replica to
// hedge to: a call on a one-replica conn goes straight to transport and
// arms nothing, so it never wakes the wheel's runner.
//
// The race runs on the calling goroutine: each leg is an rpc.Pending, and
// one select waits on both legs' verdicts, the hedge alarm and ctx. Start
// returns once a leg's frame is on the wire, so the hedge leg reuses the
// primary's request buffer, and the delay counts from when the primary's
// frame was written. The alarm is an entry on the conn's timing wheel, so
// a hedge fires within one wheel tick after it is due.
func (c *DataPlaneConn) hedge(ctx context.Context, m *callMeta, r *replica) (*rpc.Response, error) {
	if m.Method.NoRetry || m.Attempt > 0 || m.Sheds > 0 || c.size.Load() < 2 {
		return c.transport(ctx, m, r)
	}
	delay := c.hedgeDelay()
	if delay <= 0 {
		return c.transport(ctx, m, r)
	}

	var (
		legs     [2]raceLeg // 0 = primary, 1 = hedge
		done     [2]<-chan *rpc.Response
		firstErr error
	)
	legs[0] = raceLeg{r: r, start: time.Now()}
	p, err := r.client.Start(ctx, m.MethodID, m.framed, m.callOptions(false))
	if err != nil {
		return c.outcome(r, legs[0].start, nil, err)
	}
	legs[0].p, done[0] = p, p.Done()

	al := alarmPool.Get().(*hedgeAlarm)
	defer c.releaseAlarm(al)
	c.wheel.Schedule(&al.entry, c.opts.Clock.Now().Add(delay), al)
	alarm := (<-chan struct{})(al.c)

	for {
		var i int
		var resp *rpc.Response
		select {
		case resp = <-done[0]:
			i = 0
		case resp = <-done[1]:
			i = 1
		case <-alarm:
			alarm, al.fired = nil, true
			r := c.pick(m, true)
			if r == nil {
				continue // no untried replica to hedge to
			}
			m.markTried(r)
			c.hedges.Add(1)
			c.mHedges.Inc()
			legs[1] = raceLeg{r: r, start: time.Now()}
			p, err := r.client.Start(ctx, m.MethodID, m.framed, m.callOptions(true))
			if err != nil {
				// The primary is still outstanding; let it decide the call.
				_, firstErr = c.outcome(r, legs[1].start, nil, err)
				continue
			}
			legs[1].p, done[1] = p, p.Done()
			continue
		case <-ctx.Done():
			for j := range legs {
				if done[j] != nil {
					legs[j].p.Abandon()
					c.outcome(legs[j].r, legs[j].start, nil, ctx.Err())
				}
			}
			return nil, ctx.Err()
		}
		done[i] = nil
		out, err := legs[i].p.Result(resp)
		out, err = c.outcome(legs[i].r, legs[i].start, out, err)
		if err == nil {
			if i == 1 {
				c.hedgeWins.Add(1)
				c.mHedgeWins.Inc()
			}
			for j := range legs {
				if done[j] != nil {
					legs[j].p.Abandon()
					c.recordHedgeLoser(m, legs[j].start)
					legs[j].r.release()
				}
			}
			return out, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if done[0] == nil && done[1] == nil {
			return nil, firstErr
		}
		// The other leg is still running; let it decide the call.
	}
}

// A raceLeg is one outstanding leg of a hedge race.
type raceLeg struct {
	p     rpc.Pending
	r     *replica
	start time.Time
}

// A hedgeAlarm is a pooled hedge timer: a wheel entry whose expiry posts
// to a 1-buffered channel the racing caller selects on.
type hedgeAlarm struct {
	entry clock.WheelEntry
	c     chan struct{}
	fired bool // the caller consumed the expiry signal
}

var alarmPool = sync.Pool{New: func() any {
	return &hedgeAlarm{c: make(chan struct{}, 1)}
}}

// Expire implements clock.Expirer. It never blocks: an entry fires at most
// once per Schedule, and releaseAlarm drains the signal before reuse.
func (a *hedgeAlarm) Expire() { a.c <- struct{}{} }

// releaseAlarm disarms a and returns it to the pool. When Stop is too late
// the wheel has fired (or is firing) the entry, so its signal is taken
// first unless the race already consumed it; the channel is empty whenever
// an alarm is pooled.
func (c *DataPlaneConn) releaseAlarm(a *hedgeAlarm) {
	if !c.wheel.Stop(&a.entry) && !a.fired {
		<-a.c
	}
	a.fired = false
	alarmPool.Put(a)
}

// recordHedgeLoser records the canceled span of a hedge-race leg that
// lost when the call was decided, as a child of the call's span.
func (c *DataPlaneConn) recordHedgeLoser(m *callMeta, start time.Time) {
	tr := c.opts.Tracer
	if tr == nil || !m.Trace.Valid() {
		return
	}
	leg := m.Trace.Child()
	tr.RecordSampled(tracing.Span{
		Trace:      uint64(leg.Trace),
		ID:         uint64(leg.Span),
		Parent:     uint64(leg.Parent),
		Component:  ShortName(m.Component),
		Method:     m.Method.Name,
		StartNanos: start.UnixNano(),
		EndNanos:   time.Now().UnixNano(),
		Err:        "canceled (hedge loser)",
		Remote:     true,
	}, m.Trace.Sampled)
}

// transport performs one unhedged attempt against the chosen replica.
func (c *DataPlaneConn) transport(ctx context.Context, m *callMeta, r *replica) (*rpc.Response, error) {
	start := time.Now()
	out, err := r.client.CallFramed(ctx, m.MethodID, m.framed, m.callOptions(false))
	return c.outcome(r, start, out, err)
}

// outcome feeds one completed leg back to its replica's breaker and, on
// success, its latency to the adaptive hedge delay, then ends the leg's
// hold on the replica; it returns the leg's result unchanged. Every leg
// but an abandoned hedge loser ends here. Cancellation (a hedge loser, or
// the caller giving up) is not held against the replica; a deadline that
// expired mid-call is, because slowness is exactly what the breaker needs
// to see.
func (c *DataPlaneConn) outcome(r *replica, start time.Time, out *rpc.Response, err error) (*rpc.Response, error) {
	defer r.release()
	if err == nil {
		c.lat.add(time.Since(start))
		c.counted(r.breaker.Report(false))
		return out, nil
	}
	var te *rpc.TransportError
	switch {
	case errors.Is(err, rpc.ErrOverloaded):
		c.mOverload.Inc()
		c.counted(r.breaker.Report(true))
	case errors.Is(err, rpc.ErrUnavailable):
		// The replica is draining or no longer hosts the component (live
		// re-placement). The request never executed; steer the breaker away
		// and let the caller retry on a replica from the new epoch.
		c.mUnavail.Inc()
		c.counted(r.breaker.Report(true))
	case errors.Is(err, context.Canceled):
	case errors.As(err, &te) || errors.Is(err, context.DeadlineExceeded):
		c.counted(r.breaker.Report(true))
	}
	return nil, err
}
