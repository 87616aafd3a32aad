package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// DataPlaneConn invokes component methods over the custom TCP data plane
// (internal/rpc) using the unversioned codec. One DataPlaneConn serves one
// component; the balancer chooses among the component's replicas per call,
// and rpc.Clients are cached per replica address.
//
// The conn owns the resilience mechanics the paper assigns to the runtime
// (§5): transport failures are retried (against a different replica when
// the balancer offers one) up to transportAttempts times; a per-replica
// circuit breaker remembers recent outcomes and routes traffic around
// replicas that keep failing, probing them with Ping until they recover;
// requests shed by server admission control (rpc.ErrOverloaded) are
// retried elsewhere without counting against at-most-once semantics,
// because they never executed; and idempotent methods may be hedged — a
// second attempt to a different replica after a p99-derived delay, first
// response wins, loser canceled. Application errors are never retried
// here — they are decoded from the results payload by the generated stub.
//
// These mechanics are a fixed sequence of calls (see callpath.go):
// retry → hedge → transport, sharing a per-call *callMeta whose
// wire-visible fields (priority, attempt, hedge, sampled trace) ride the
// request header.
type DataPlaneConn struct {
	component string
	// methods and methodIDs hold the registered component's methods and
	// their wire ids, by MethodSpec.Index, so a call does not rehash its
	// method name. Both are nil for an unregistered component name.
	methods   []*codegen.MethodSpec
	methodIDs []rpc.MethodID
	balancer  routing.Balancer
	pick      routing.Balancer // balancer filtered through breaker health
	opts      ConnOptions
	breakers  *rpc.BreakerGroup
	lat       *latencyTracker
	// wheel arms hedge alarms at the server's 1 ms deadline resolution;
	// its runner goroutine exists only while a hedged call is in flight.
	wheel *clock.Wheel

	mu      sync.Mutex
	clients map[string]*rpc.Client

	hedges    atomic.Uint64
	hedgeWins atomic.Uint64

	// Metrics (shared across conns; per-conn counts are the atomics above).
	mHedges    *metrics.Counter
	mHedgeWins *metrics.Counter
	mOverload  *metrics.Counter
	mUnavail   *metrics.Counter
}

// ConnOptions configures a DataPlaneConn.
type ConnOptions struct {
	// Client configures the per-replica rpc clients.
	Client rpc.ClientOptions

	// Breaker tunes the per-replica circuit breakers.
	Breaker rpc.BreakerOptions

	// HedgeAfter is the fixed delay before an idempotent call is hedged to
	// a second replica. Zero selects an adaptive delay: the rolling p99 of
	// recent successful calls (no hedging until enough samples accrue).
	HedgeAfter time.Duration
	// DisableHedging turns hedging off entirely.
	DisableHedging bool

	// NoReplicaGrace is how long a call waits for the component's replica
	// set to become non-empty before failing (default 3s). Tests inject a
	// short grace so they need not wait out the production default.
	NoReplicaGrace time.Duration

	// Clock supplies the scheduling timers (replica-wait polling, the
	// hedge-alarm wheel). Nil means the wall clock.
	Clock clock.Clock

	// Tracer, when set, records spans for hedge-race legs that lose after
	// the call is decided (so traces show the canceled duplicate).
	Tracer *tracing.Recorder
}

// transportAttempts is the attempt budget for transport-level failures,
// and separately for attempts the server refused without executing.
// At-most-once methods always get exactly one executing attempt
// regardless.
const transportAttempts = 3

func (o *ConnOptions) fill() {
	if o.NoReplicaGrace <= 0 {
		o.NoReplicaGrace = 3 * time.Second
	}
	o.Clock = clock.Or(o.Clock)
	if o.Client.Clock == nil {
		// The rpc client's own timers (ping timeout) follow the conn's
		// injected clock unless the caller pinned one explicitly.
		o.Client.Clock = o.Clock
	}
}

// hedgeMinDelay floors the adaptive hedge delay: when calls complete in
// microseconds, firing a hedge that early would only double traffic.
const hedgeMinDelay = 500 * time.Microsecond

// hedgeMinSamples is how many successful calls the adaptive delay needs
// before hedging activates.
const hedgeMinSamples = 64

// NewDataPlaneConnWith returns a data-plane connection for the named
// component, picking replicas with balancer, with the breaker, hedging and
// transport behavior set by opts.
func NewDataPlaneConnWith(component string, balancer routing.Balancer, opts ConnOptions) *DataPlaneConn {
	opts.fill()
	c := &DataPlaneConn{
		component:  component,
		balancer:   balancer,
		opts:       opts,
		lat:        newLatencyTracker(),
		wheel:      clock.NewWheel(opts.Clock, time.Millisecond, 64),
		clients:    map[string]*rpc.Client{},
		mHedges:    metrics.Default.Counter("core.dataplane.hedges"),
		mHedgeWins: metrics.Default.Counter("core.dataplane.hedge_wins"),
		mOverload:  metrics.Default.Counter("core.dataplane.overloaded"),
		mUnavail:   metrics.Default.Counter("core.dataplane.unavailable"),
	}
	if reg, ok := codegen.Find(component); ok {
		c.methods = reg.Methods
		c.methodIDs = make([]rpc.MethodID, len(reg.Methods))
		for i, m := range reg.Methods {
			c.methodIDs[i] = rpc.ComponentMethodKey(component, m.Name)
		}
	}
	c.breakers = rpc.NewBreakerGroup(opts.Breaker)
	c.breakers.SetProbe(func(ctx context.Context, addr string) error {
		return c.clientFor(addr).Ping(ctx)
	})
	c.pick = routing.NewHealthAware(balancer, c.breakers.Healthy)
	return c
}

// Balancer returns the conn's balancer, so deployers can push replica-set
// and assignment updates into it.
func (c *DataPlaneConn) Balancer() routing.Balancer { return c.balancer }

// BreakerState returns the breaker state for a replica address (closed
// when the address is unknown).
func (c *DataPlaneConn) BreakerState(addr string) rpc.BreakerState {
	return c.breakers.State(addr)
}

// HedgeStats returns how many hedges this conn launched and how many were
// first to answer.
func (c *DataPlaneConn) HedgeStats() (launched, won uint64) {
	return c.hedges.Load(), c.hedgeWins.Load()
}

// Close closes all cached clients.
func (c *DataPlaneConn) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.clients {
		cl.Close()
	}
	c.clients = map[string]*rpc.Client{}
	c.wheel.Close()
}

func (c *DataPlaneConn) clientFor(addr string) *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.clients[addr]
	if cl == nil {
		cl = rpc.NewClient(addr, c.opts.Client)
		c.clients[addr] = cl
	}
	return cl
}

// pickWithGrace chooses a healthy replica, waiting out NoReplicaGrace when
// the replica set is empty — typically mid-restart after a crash (paper
// §3.1: replicas "may fail and get restarted") — rather than failing the
// caller immediately. The wait respects context cancellation.
func (c *DataPlaneConn) pickWithGrace(ctx context.Context, shard uint64, hasShard bool) (string, error) {
	addr, err := c.pick.Pick(shard, hasShard)
	if !errors.Is(err, routing.ErrNoReplicas) {
		return addr, err
	}
	poll := 20 * time.Millisecond
	if c.opts.NoReplicaGrace < 5*poll {
		poll = c.opts.NoReplicaGrace / 5
	}
	clk := c.opts.Clock
	waitUntil := clk.Now().Add(c.opts.NoReplicaGrace)
	for err != nil && clk.Now().Before(waitUntil) {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-clk.After(poll):
		}
		addr, err = c.pick.Pick(shard, hasShard)
	}
	return addr, err
}

// hedgeDelay returns the delay after which an idempotent call is hedged,
// or 0 when hedging should not fire.
func (c *DataPlaneConn) hedgeDelay() time.Duration {
	if c.opts.DisableHedging {
		return 0
	}
	if c.opts.HedgeAfter > 0 {
		return c.opts.HedgeAfter
	}
	d := c.lat.p99()
	if d > 0 && d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	return d
}

// Invoke implements codegen.Conn. Arguments are encoded once, by their
// generated WeaverMarshal, into a pooled encoder with transport headroom, so
// the request travels from codec to wire without copies; the response
// payload is decoded by the results' generated WeaverUnmarshal straight out
// of the transport's pooled read buffer and released afterwards. The call
// itself runs retry → hedge → transport, driven by a stack-allocated
// callMeta.
func (c *DataPlaneConn) Invoke(ctx context.Context, component string, m *codegen.MethodSpec, args codec.Marshaler, res codec.Unmarshaler, shard uint64, hasShard bool) error {
	enc := codec.GetEncoder()
	enc.Reserve(rpc.PayloadHeadroom)
	args.WeaverMarshal(enc)
	meta := callMeta{
		Component: c.component,
		Method:    m,
		MethodID:  c.methodID(m),
		Shard:     shard,
		HasShard:  hasShard,
		Priority:  rpc.Priority(m.Priority),
		framed:    enc.Framed(),
	}
	if sc, ok := tracing.FromContext(ctx); ok {
		meta.Trace = sc
	}
	// Every leg's frame is on the wire by the time retry returns, so the
	// request buffer is quiescent.
	resp, err := c.retry(ctx, &meta)
	codec.PutEncoder(enc)
	if err != nil {
		return err
	}
	uerr := codec.Parse(resp.Data(), res)
	resp.Release()
	return uerr
}

// methodID returns m's wire id: the cached one when m is a method of the
// registered component, otherwise a fresh hash.
func (c *DataPlaneConn) methodID(m *codegen.MethodSpec) rpc.MethodID {
	if m.Index < len(c.methods) && c.methods[m.Index] == m {
		return c.methodIDs[m.Index]
	}
	return rpc.ComponentMethodKey(c.component, m.Name)
}

// latencyTracker keeps a small ring of recent successful call latencies
// and derives the p99 used as the adaptive hedge delay. The quantile is
// recomputed every few insertions and cached, keeping the hot path to a
// mutexed append.
type latencyTracker struct {
	mu        sync.Mutex
	samples   [128]time.Duration
	n         int // total adds, capped contribution to ring
	sinceCalc int
	cached    time.Duration
	// computed distinguishes "never recomputed" from a legitimately zero
	// p99: a zero sentinel in cached would force a re-sort on every call
	// whenever the true quantile rounds to 0.
	computed bool
	scratch  []time.Duration // reused across recomputes
}

func newLatencyTracker() *latencyTracker { return &latencyTracker{} }

func (t *latencyTracker) add(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%len(t.samples)] = d
	t.n++
	t.sinceCalc++
	t.mu.Unlock()
}

// p99 returns the cached 99th percentile of recent latencies, or 0 when
// fewer than hedgeMinSamples calls have completed. The quantile is
// recomputed after every 32 inserts; between recomputes it is a field read.
func (t *latencyTracker) p99() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < hedgeMinSamples {
		return 0
	}
	if !t.computed || t.sinceCalc >= 32 {
		t.sinceCalc = 0
		t.computed = true
		size := t.n
		if size > len(t.samples) {
			size = len(t.samples)
		}
		if cap(t.scratch) < size {
			t.scratch = make([]time.Duration, size)
		}
		tmp := t.scratch[:size]
		copy(tmp, t.samples[:size])
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		t.cached = tmp[(size*99)/100]
	}
	return t.cached
}

// HostComponents exposes the implementations of the runtime's hosted
// components on srv, decoding arguments and encoding results with the
// methods' generated codecs. It initializes each hosted component.
func HostComponents(ctx context.Context, r *Runtime, srv *rpc.Server, components []string) error {
	for _, name := range components {
		reg, ok := codegen.Find(name)
		if !ok {
			return fmt.Errorf("core: hosting unknown component %q", name)
		}
		impl, err := r.LocalImpl(ctx, name)
		if err != nil {
			return err
		}
		served, latency := r.servedHandles(name)
		for _, m := range reg.Methods {
			m := m
			srv.RegisterFramed(reg.FullMethod(m.Name), func(ctx context.Context, argBytes []byte) ([]byte, rpc.BufOwner, error) {
				served.Inc()
				start := time.Now()
				defer func() { latency.Put(float64(time.Since(start).Microseconds())) }()
				var args codegen.Message
				if m.ArgsPool != nil {
					args = m.ArgsPool.GetAny()
				} else {
					args = m.NewArgs()
				}
				if err := codec.Parse(argBytes, args); err != nil {
					if m.ArgsPool != nil {
						m.ArgsPool.PutAny(args)
					}
					return nil, nil, fmt.Errorf("bad arguments for %s.%s: %w", ShortName(reg.Name), m.Name, err)
				}
				var res codegen.Message
				if m.ResPool != nil {
					res = m.ResPool.GetAny()
				} else {
					res = m.NewRes()
				}
				m.Do(ctx, impl, args, res)
				// Encode the results into a pooled encoder with response
				// headroom; the transport frames it in place, writes it,
				// and releases the encoder (its Release is the BufOwner).
				enc := codec.GetEncoder()
				enc.Reserve(rpc.ResponseHeadroom)
				res.WeaverMarshal(enc)
				if m.ArgsPool != nil {
					m.ArgsPool.PutAny(args)
				}
				if m.ResPool != nil {
					m.ResPool.PutAny(res)
				}
				return enc.Framed(), enc, nil
			})
		}
	}
	return nil
}

// UnhostComponent removes the named component's method handlers from srv,
// blocking until every in-flight call to them has drained (see
// rpc.Server.Unregister). Later calls for these methods receive
// rpc.ErrUnavailable, which clients treat as never-executed and retry on a
// replica from the new placement. The component implementation itself is
// not shut down; a re-host on this process reuses it.
func UnhostComponent(srv *rpc.Server, component string) error {
	reg, ok := codegen.Find(component)
	if !ok {
		return fmt.Errorf("core: unhosting unknown component %q", component)
	}
	for _, m := range reg.Methods {
		srv.Unregister(reg.FullMethod(m.Name))
	}
	return nil
}
