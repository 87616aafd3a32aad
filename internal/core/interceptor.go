// Client-side interceptor chain: the call path the paper assigns to the
// runtime (§5) — routing, health filtering, retries, hedging, transport —
// decomposed into ordered stages instead of one monolithic Invoke. Each
// stage reads and advances a per-call *CallMeta; the chain is composed
// once per DataPlaneConn, so a call costs plain function indirection, not
// per-call closure construction.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// CallMeta is the per-call state threaded through the client interceptor
// chain. The wire-visible subset — priority class, attempt ordinal, hedge
// marker, span context with its sampled bit — is encoded into the request
// header by the transport stage; the rest is routing and buffer state the
// stages coordinate through.
type CallMeta struct {
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

	// balancer picks replicas; the route stage installs the component's
	// balancer and the breaker stage swaps in its health-filtered view.
	balancer routing.Balancer
	// tried records replicas already attempted, so retries prefer fresh
	// ones. Only the stage goroutine mutates it.
	tried map[string]bool

	// framed is the pooled request buffer (args behind PayloadHeadroom).
	// reusable reports it quiescent — false while an abandoned hedge leg
	// may still be writing from it; cloned marks a private retry copy.
	framed   []byte
	reusable bool
	cloned   bool
}

// ClientNext invokes the remainder of the client's interceptor chain for
// one attempt description.
type ClientNext func(ctx context.Context, m *CallMeta) (*rpc.Response, error)

// A ClientInterceptor is one composable stage of the client call path.
// Stages run in the order route → breaker → retry → hedge → transport.
type ClientInterceptor func(ctx context.Context, m *CallMeta, next ClientNext) (*rpc.Response, error)

// chainClient composes stages around a terminal transport, outermost
// first.
func chainClient(stages []ClientInterceptor, terminal ClientNext) ClientNext {
	next := terminal
	for i := len(stages) - 1; i >= 0; i-- {
		ic, inner := stages[i], next
		next = func(ctx context.Context, m *CallMeta) (*rpc.Response, error) {
			return ic(ctx, m, inner)
		}
	}
	return next
}

// routeStage installs the component's balancer as the call's replica
// picker.
func (c *DataPlaneConn) routeStage(ctx context.Context, m *CallMeta, next ClientNext) (*rpc.Response, error) {
	m.balancer = c.balancer
	return next(ctx, m)
}

// breakerStage swaps the picker for the breaker group's health-filtered
// view, so attempts route around replicas whose breaker is open (the
// group probes them with Ping until they recover).
func (c *DataPlaneConn) breakerStage(ctx context.Context, m *CallMeta, next ClientNext) (*rpc.Response, error) {
	m.balancer = c.pick
	return next(ctx, m)
}

// retryStage owns the attempt loop: per attempt it picks a replica
// (waiting out NoReplicaGrace when the set is empty, preferring replicas
// not yet tried) and classifies failures. Server sheds and unavailable
// replies never executed, so they draw on a budget separate from
// executing attempts — which at-most-once methods get exactly one of.
func (c *DataPlaneConn) retryStage(ctx context.Context, m *CallMeta, next ClientNext) (*rpc.Response, error) {
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
		addr, err := c.pickWithGrace(ctx, m.balancer, m.Shard, m.HasShard)
		if err != nil {
			return nil, err
		}
		// Prefer an untried replica on retries, but accept a repeat if the
		// balancer has only one choice.
		if (m.Attempt > 0 || m.Sheds > 0) && m.tried[addr] {
			for i := 0; i < 4 && m.tried[addr]; i++ {
				if a2, err2 := m.balancer.Pick(m.Shard, m.HasShard); err2 == nil {
					addr = a2
				} else {
					break
				}
			}
		}
		m.tried[addr] = true
		m.Addr = addr

		resp, err := next(ctx, m)
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

// hedgeStage races a second attempt against a different replica when the
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
func (c *DataPlaneConn) hedgeStage(ctx context.Context, m *CallMeta, next ClientNext) (*rpc.Response, error) {
	if m.Method.NoRetry || m.Attempt > 0 || m.Sheds > 0 {
		return next(ctx, m)
	}
	delay := c.hedgeDelay()
	if delay <= 0 {
		return next(ctx, m)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser is abandoned and its server told to stop

	type attempt struct {
		meta  *CallMeta
		start int64
		out   *rpc.Response
		err   error
		leg   int // 0 = primary
	}
	results := make(chan attempt, 2) // buffered: losers must not leak
	launch := func(meta *CallMeta, leg int) {
		start := time.Now().UnixNano()
		go func() {
			out, err := next(hctx, meta)
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
			addr, err := m.balancer.Pick(m.Shard, m.HasShard)
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
func (c *DataPlaneConn) recordHedgeLoser(m *CallMeta, startNanos int64) {
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

// transport is the terminal stage: one attempt against one replica, with
// the call's wire metadata (span context, priority, attempt, hedge flag)
// mapped onto the rpc layer. Outcomes feed the replica's breaker inside
// callOnce.
func (c *DataPlaneConn) transport(ctx context.Context, m *CallMeta) (*rpc.Response, error) {
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
	return c.callOnce(ctx, m.Addr, m.MethodID, m.framed, callOpts)
}
