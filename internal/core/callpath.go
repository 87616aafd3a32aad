// Client call path: the mechanics the paper assigns to the runtime (§5)
// as a fixed sequence of method calls. Invoke calls retry, which runs the
// attempt loop and calls hedge per attempt, which races one or two
// transport legs. Replicas are always picked through the breaker group's
// health-filtered view. A per-call *callMeta carries the state the steps
// share; its wire-visible fields ride the request header.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// callMeta is the per-call state shared by retry, hedge and transport.
// The wire-visible subset — priority class, attempt ordinal, hedge
// marker, span context with its sampled bit — is encoded into the request
// header by transport; the rest is routing and buffer state the steps
// coordinate through.
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

	// Hedge marks this leg as a hedged duplicate.
	Hedge bool

	// Addr is the replica chosen for the current attempt.
	Addr string

	// tried records replicas already attempted, so retries prefer fresh
	// ones. Only the calling goroutine mutates it.
	tried map[string]bool

	// framed is the pooled request buffer (args behind PayloadHeadroom).
	// reusable reports it quiescent — false while an abandoned hedge leg
	// may still be writing from it; cloned marks a private retry copy.
	framed   []byte
	reusable bool
	cloned   bool
}

// retry owns the attempt loop: per attempt it picks a replica
// (waiting out NoReplicaGrace when the set is empty, preferring replicas
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
		addr, err := c.pickWithGrace(ctx, m.Shard, m.HasShard)
		if err != nil {
			return nil, err
		}
		// Prefer an untried replica on retries, but accept a repeat if the
		// balancer has only one choice.
		if (m.Attempt > 0 || m.Sheds > 0) && m.tried[addr] {
			for i := 0; i < 4 && m.tried[addr]; i++ {
				if a2, err2 := c.pick.Pick(m.Shard, m.HasShard); err2 == nil {
					addr = a2
				} else {
					break
				}
			}
		}
		m.tried[addr] = true
		m.Addr = addr

		resp, err := c.hedge(ctx, m)
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
		if !m.reusable && !m.cloned {
			// An abandoned hedge leg may still be writing from the shared
			// buffer; retry from a private copy of the args region (the
			// headroom is per-attempt scratch).
			dup := make([]byte, len(m.framed))
			copy(dup[rpc.PayloadHeadroom:], m.framed[rpc.PayloadHeadroom:])
			m.framed = dup
			m.cloned = true
		}
	}
	return nil, fmt.Errorf("core: %s.%s failed after %d attempts: %w",
		ShortName(m.Component), m.Method.Name, m.Attempt+m.Sheds, lastErr)
}

// hedge races a second attempt against a different replica when the
// first has not answered within the hedge delay (adaptive p99 unless
// configured). First response wins; the loser's context is canceled,
// which propagates an explicit cancel frame — and servers may drop a
// queued hedge whose caller has thus gone away. Only the first attempt of
// an idempotent method is hedged.
//
// Each racing leg runs on a private copy of the meta: the hedge leg also
// gets a private copy of the request buffer, because both legs fill the
// framing headroom in place. When the call is decided while the primary
// leg is still writing, the shared buffer is marked non-reusable.
func (c *DataPlaneConn) hedge(ctx context.Context, m *callMeta) (*rpc.Response, error) {
	if m.Method.NoRetry || m.Attempt > 0 || m.Sheds > 0 {
		return c.transport(ctx, m)
	}
	delay := c.hedgeDelay()
	if delay <= 0 {
		return c.transport(ctx, m)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser is abandoned and its server told to stop

	type attempt struct {
		meta  *callMeta
		start int64
		out   *rpc.Response
		err   error
		leg   int // 0 = primary
	}
	results := make(chan attempt, 2) // buffered: losers must not leak
	launch := func(meta *callMeta, leg int) {
		start := time.Now().UnixNano()
		go func() {
			out, err := c.transport(hctx, meta)
			results <- attempt{meta: meta, start: start, out: out, err: err, leg: leg}
		}()
	}
	pm := *m
	launch(&pm, 0)
	outstanding := 1
	primaryDone := false
	hedged := false

	timer := c.opts.Clock.NewTimer(delay)
	defer timer.Stop()

	// drain releases responses from legs that lose after we have decided
	// the call (so their pooled buffers are not stranded) and records
	// their canceled loser spans.
	drain := func(n int) {
		if n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					a := <-results
					if a.out != nil {
						a.out.Release()
					}
					c.recordHedgeLoser(a.meta, a.start)
				}
			}()
		}
	}

	var firstErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.leg == 0 {
				primaryDone = true
			}
			if r.err == nil {
				if hedged && r.leg != 0 {
					c.hedgeWins.Add(1)
					c.mHedgeWins.Inc()
				}
				if !primaryDone {
					m.reusable = false
				}
				drain(outstanding)
				return r.out, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
			// The other leg is still running; let it decide the call.
		case <-timer.C():
			if hedged {
				continue
			}
			hedged = true
			addr, err := c.pick.Pick(m.Shard, m.HasShard)
			if err != nil || addr == m.Addr {
				continue // no distinct replica to hedge to
			}
			m.tried[addr] = true
			c.hedges.Add(1)
			c.mHedges.Inc()
			// Copy only the args region: the primary leg mutates the
			// headroom concurrently, and the hedge leg fills its own.
			dup := make([]byte, len(m.framed))
			copy(dup[rpc.PayloadHeadroom:], m.framed[rpc.PayloadHeadroom:])
			hm := *m
			hm.Hedge = true
			hm.Addr = addr
			hm.framed = dup
			launch(&hm, 1)
			outstanding++
		}
	}
}

// recordHedgeLoser records the canceled span of a hedge-race leg that
// lost after the call was decided, as a child of the call's span.
func (c *DataPlaneConn) recordHedgeLoser(m *callMeta, startNanos int64) {
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
		StartNanos: startNanos,
		EndNanos:   time.Now().UnixNano(),
		Err:        "canceled (hedge loser)",
		Remote:     true,
	}, m.Trace.Sampled)
}

// transport performs one attempt against one replica, mapping the call's
// wire metadata (span context, priority, attempt, hedge flag) onto the rpc
// layer, and feeds the outcome back to the replica's breaker. Cancellation
// of ctx (a hedge loser, or the caller giving up) is not held against the
// replica; a deadline that expired mid-call is, because slowness is
// exactly what the breaker needs to see.
func (c *DataPlaneConn) transport(ctx context.Context, m *callMeta) (*rpc.Response, error) {
	var callOpts rpc.CallOptions
	if m.HasShard {
		callOpts.Shard = m.Shard
	}
	callOpts.Trace = m.Trace
	attempt := m.Attempt
	if attempt > 255 {
		attempt = 255
	}
	callOpts.Meta = rpc.CallMeta{Priority: m.Priority, Attempt: uint8(attempt), Hedge: m.Hedge}
	start := time.Now()
	out, err := c.clientFor(m.Addr).CallFramed(ctx, m.MethodID, m.framed, callOpts)
	if err == nil {
		c.lat.add(time.Since(start))
		c.breakers.Report(m.Addr, false)
		return out, nil
	}
	if errors.Is(err, rpc.ErrOverloaded) {
		c.mOverload.Inc()
		c.breakers.Report(m.Addr, true)
		return nil, err
	}
	if errors.Is(err, rpc.ErrUnavailable) {
		// The replica is draining or no longer hosts the component (live
		// re-placement). The request never executed; steer the breaker away
		// and let the caller retry on a replica from the new epoch.
		c.mUnavail.Inc()
		c.breakers.Report(m.Addr, true)
		return nil, err
	}
	if errors.Is(err, context.Canceled) {
		return nil, err
	}
	var te *rpc.TransportError
	if errors.As(err, &te) || errors.Is(err, context.DeadlineExceeded) {
		c.breakers.Report(m.Addr, true)
	}
	return nil, err
}
