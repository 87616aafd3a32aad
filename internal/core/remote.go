package core

import (
	"context"
	"fmt"
	"slices"
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
// component and chooses among the component's replicas per call.
//
// The conn owns the caller's whole route to the component: the applied
// routing epoch, the applied slice assignment, and a replica table with
// one entry — an rpc.Client and its circuit breaker — per replica of the
// applied push. UpdateRouting changes all of them under one lock, and
// pick, the one replica picker, reads them under it.
//
// The conn owns the resilience mechanics the paper assigns to the runtime
// (§5): transport failures are retried (against a replica not yet tried
// when there is one) up to transportAttempts times; a per-replica
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
	opts      ConnOptions
	lat       *latencyTracker
	// wheel arms hedge alarms at the server's 1 ms deadline resolution;
	// its runner ticks only while a hedged call is in flight, and a
	// one-replica conn never arms one.
	wheel *clock.Wheel

	// mu guards the route: a push changes the epoch, the table, the
	// assignment and the wake channel together.
	mu    sync.Mutex
	epoch uint64 // newest routing epoch applied
	// replicas is the replica table, keyed by address: exactly the
	// addresses of the applied push. It is nil once the conn is closed.
	replicas map[string]*replica
	// addrs holds the applied push's addresses in push order, which the
	// manager sorts; pick rotates over them.
	addrs []string
	// assignment is the applied push's slice assignment, nil when the push
	// carried none: an unrouted component, or no replicas. It is stored
	// under mu; Owners reads it without the lock.
	assignment atomic.Pointer[routing.Assignment]
	// next is where pick's next scan starts.
	next uint64
	// size is len(replicas), published under mu so a call can tell
	// without the lock whether it has a second replica to hedge to.
	size atomic.Int32
	// wake is closed by UpdateRouting to wake calls waiting for a replica;
	// nil until a call finds the replica set empty.
	wake chan struct{}

	hedges    atomic.Uint64
	hedgeWins atomic.Uint64

	// Metrics (shared across conns; per-conn counts are the atomics above).
	mHedges    *metrics.Counter
	mHedgeWins *metrics.Counter
	mOverload  *metrics.Counter
	mUnavail   *metrics.Counter
	mOpened    *metrics.Counter // breaker trips
	mClosed    *metrics.Counter // breaker recoveries
	mProbes    *metrics.Counter // half-open probes launched
}

// A replica is one entry of a conn's replica table: the rpc client and the
// circuit breaker of one replica address.
type replica struct {
	client  *rpc.Client
	breaker *rpc.Breaker
	// refs counts the table's own reference, held until a push prunes the
	// entry or the conn closes, plus one per leg in flight. The client
	// closes when the last reference goes, so a pruned replica's legs run
	// to completion and nothing uses its client afterwards.
	refs atomic.Int32
}

// newReplica makes the table entry for addr. It is the one place a conn
// makes an rpc client (make lint enforces this).
func (c *DataPlaneConn) newReplica(addr string) *replica {
	r := &replica{client: rpc.NewClient(addr, c.opts.Client), breaker: rpc.NewBreaker(c.opts.Clock)}
	r.refs.Store(1)
	return r
}

// release drops one reference to r, closing its client with the last.
func (r *replica) release() {
	if r.refs.Add(-1) == 0 {
		r.client.Close()
	}
}

// ConnOptions configures a DataPlaneConn. The breaker's tuning and the
// replica wait's grace are fixed (rpc's breaker constants and
// noReplicaGrace); both read time from Clock.
type ConnOptions struct {
	// Client configures the per-replica rpc clients.
	Client rpc.ClientOptions

	// HedgeAfter is the fixed delay before an idempotent call is hedged to
	// a second replica. Zero selects an adaptive delay: the rolling p99 of
	// recent successful calls (no hedging until enough samples accrue).
	HedgeAfter time.Duration
	// DisableHedging turns hedging off entirely.
	DisableHedging bool

	// Clock supplies the conn's time: the replica wait's grace, the
	// breakers' windows and cooldowns, and the hedge-alarm wheel, which
	// holds alarms only while the replica table has a second replica, so
	// a one-replica conn never starts its runner. Nil means the wall
	// clock. Tests inject a Fake and advance it rather than wait out the
	// grace or a cooldown.
	Clock clock.Clock

	// Tracer, when set, records spans for hedge-race legs that lose after
	// the call is decided (so traces show the canceled duplicate).
	Tracer *tracing.Recorder
}

// noReplicaGrace is how long a call waits for the component's replica set
// to become non-empty before failing with routing.ErrNoReplicas. It is
// generous because the manager may be spawning the component's very first
// replica (in a subprocess deployment that includes an exec). The call
// re-picks as soon as UpdateRouting installs a push, so the grace bounds
// the wait; it does not pace it.
const noReplicaGrace = 15 * time.Second

// transportAttempts is the attempt budget for transport-level failures,
// and separately for attempts the server refused without executing.
// At-most-once methods always get exactly one executing attempt
// regardless.
const transportAttempts = 3

func (o *ConnOptions) fill() {
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

// NewDataPlaneConn returns a data-plane connection for the named component,
// with the hedging and transport behavior set by opts. It routes a sharded
// call by key whenever the applied push carries a slice assignment.
func NewDataPlaneConn(component string, opts ConnOptions) *DataPlaneConn {
	opts.fill()
	c := &DataPlaneConn{
		component:  component,
		opts:       opts,
		lat:        newLatencyTracker(),
		wheel:      clock.NewWheel(opts.Clock, time.Millisecond, 64),
		replicas:   map[string]*replica{},
		mHedges:    metrics.Default.Counter("core.dataplane.hedges"),
		mHedgeWins: metrics.Default.Counter("core.dataplane.hedge_wins"),
		mOverload:  metrics.Default.Counter("core.dataplane.overloaded"),
		mUnavail:   metrics.Default.Counter("core.dataplane.unavailable"),
		mOpened:    metrics.Default.Counter("rpc.breaker.opened"),
		mClosed:    metrics.Default.Counter("rpc.breaker.closed"),
		mProbes:    metrics.Default.Counter("rpc.breaker.probes"),
	}
	if reg, ok := codegen.Find(component); ok {
		c.methods = reg.Methods
		c.methodIDs = make([]rpc.MethodID, len(reg.Methods))
		for i, m := range reg.Methods {
			c.methodIDs[i] = rpc.ComponentMethodKey(component, m.Name)
		}
	}
	return c
}

// Owners returns the replicas the applied slice assignment maps shard to,
// or nil when there is none (an unrouted component, or no assignment yet).
// Colocated callers use it to decide whether a routed call's key maps to
// themselves (local fast path) or to a sibling replica (data plane).
func (c *DataPlaneConn) Owners(shard uint64) []string {
	if a := c.assignment.Load(); a != nil {
		return a.Find(shard)
	}
	return nil
}

// Applied reports the newest routing epoch the conn has applied (0 before
// any push) and the sorted addresses its replica table holds: those of
// that push. Both are read under the lock the push is applied under, so
// they never run ahead of what pick sees. A pruned entry whose last legs
// are still running is no longer in the table.
func (c *DataPlaneConn) Applied() (epoch uint64, addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs = make([]string, 0, len(c.replicas))
	for addr := range c.replicas {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	return c.epoch, addrs
}

// BreakerState returns the breaker state for a replica address (closed
// when the address is not in the table).
func (c *DataPlaneConn) BreakerState(addr string) rpc.BreakerState {
	if r := c.lookup(addr); r != nil {
		return r.breaker.State()
	}
	return rpc.BreakerClosed
}

// HedgeStats returns how many hedges this conn launched and how many were
// first to answer.
func (c *DataPlaneConn) HedgeStats() (launched, won uint64) {
	return c.hedges.Load(), c.hedgeWins.Load()
}

// Close prunes every entry from the replica table and stops the hedge
// wheel. Legs in flight finish, and each client closes when its last leg
// ends. A push after Close is ignored, so nothing makes a client again.
func (c *DataPlaneConn) Close() {
	c.mu.Lock()
	for _, r := range c.replicas {
		r.release()
	}
	c.replicas, c.addrs = nil, nil
	c.assignment.Store(nil)
	c.size.Store(0)
	c.mu.Unlock()
	c.wheel.Close()
}

// lookup returns addr's table entry, or nil.
func (c *DataPlaneConn) lookup(addr string) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[addr]
}

// pick is the conn's one replica picker. It returns the table entry for a
// call's next leg with the leg's reference already taken (the leg's
// outcome drops it), or nil when there is no candidate. Under one
// acquisition of the route lock it takes the candidates — a sharded
// call's slice owners when the applied push carried an assignment, else
// the whole table — and scans them from a start that rotates per pick. It
// prefers, in order: an untried replica with a closed breaker, any untried
// one, a tried one with a closed breaker. With untried set it takes only
// replicas the call has not tried (the hedge leg). The scan visits every
// candidate until it finds the best kind, so it fails open to a sick
// replica only when every candidate is sick: a wrong health signal
// degrades to plain rotation, never to a self-inflicted outage.
func (c *DataPlaneConn) pick(m *callMeta, untried bool) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	cands := c.addrs
	if a := c.assignment.Load(); a != nil && m.HasShard {
		if owners := a.Find(m.Shard); len(owners) > 0 {
			cands = owners
		}
	}
	var best *replica
	bestRank := -1
	start, n := c.next, uint64(len(cands))
	c.next++
	for i := uint64(0); i < n && bestRank < 3; i++ {
		r := c.replicas[cands[(start+i)%n]]
		if r == nil {
			continue // an owner the table lacks
		}
		rank := 2
		if m.wasTried(r) {
			if untried {
				continue
			}
			rank = 0
		}
		if c.healthy(r) {
			rank++
		}
		if rank > bestRank {
			best, bestRank = r, rank
		}
	}
	if best != nil {
		best.refs.Add(1)
	}
	return best
}

// healthy reports whether r's breaker is closed. The first check after an
// open breaker's cooldown wins the half-open slot and pings the replica
// through the entry's client, off the request path. The probe takes no
// leg, so it never keeps a pruned client open or makes a new one.
func (c *DataPlaneConn) healthy(r *replica) bool {
	if r.breaker.State() == rpc.BreakerClosed {
		return true
	}
	if r.breaker.Allow() {
		c.mProbes.Inc()
		go func() { c.counted(r.breaker.Probe(r.client.Ping)) }()
	}
	return false
}

// counted counts a breaker transition: a trip or a recovery.
func (c *DataPlaneConn) counted(from, to rpc.BreakerState) {
	if from == to {
		return
	}
	switch to {
	case rpc.BreakerOpen:
		c.mOpened.Inc()
	case rpc.BreakerClosed:
		c.mClosed.Inc()
	}
}

// UpdateRouting applies a routing push made at epoch: the component's
// replica set, in push order, and for a routed component its slice
// assignment (nil otherwise; the manager attaches one exactly for a routed
// component with replicas, so an empty push clears it). Under the conn's
// lock it drops a push older than the applied epoch (an equal epoch
// applies), stores the addresses and the assignment, makes the replica
// table hold exactly the pushed addresses, wakes every call waiting in
// pickWithGrace for a replica, and publishes the epoch and the table's
// size. It is the one way a push reaches pick. A pruned entry takes no
// new leg; its legs in flight, hedge legs included, run to completion,
// and its client closes when the last one ends.
func (c *DataPlaneConn) UpdateRouting(epoch uint64, replicas []string, assignment *routing.Assignment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replicas == nil || epoch < c.epoch {
		return // closed, or a stale push
	}
	c.epoch = epoch
	c.addrs = slices.Clone(replicas)
	c.assignment.Store(assignment)
	table := make(map[string]*replica, len(replicas))
	for _, addr := range replicas {
		r := c.replicas[addr]
		if r == nil {
			r = c.newReplica(addr)
			c.replicas[addr] = r // a repeated address finds it
		}
		table[addr] = r
	}
	for addr, r := range c.replicas {
		if table[addr] == nil {
			r.release()
		}
	}
	c.replicas = table
	c.size.Store(int32(len(table)))
	// The push is applied, so a woken caller's re-pick sees it.
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// routingPushed returns a channel that the next UpdateRouting closes. It is
// made on demand, so only calls that find the replica set empty pay for it.
func (c *DataPlaneConn) routingPushed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	return c.wake
}

// pickWithGrace picks the replica for a call's next attempt, preferring
// one the call has not tried, and waits out noReplicaGrace when the
// replica set is empty — on demand start before the first routing push
// lands, or mid-restart after a crash (paper §3.1: replicas "may fail and
// get restarted") — rather than failing the caller immediately. The wait
// re-picks on every routing push and respects context cancellation.
func (c *DataPlaneConn) pickWithGrace(ctx context.Context, m *callMeta) (*replica, error) {
	if r := c.pick(m, false); r != nil {
		return r, nil
	}
	grace := c.opts.Clock.NewTimer(noReplicaGrace)
	defer grace.Stop()
	for {
		// Take the wake channel before re-picking: a push that lands after
		// the pick closes this channel, so no push goes unnoticed.
		pushed := c.routingPushed()
		if r := c.pick(m, false); r != nil {
			return r, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-grace.C():
			return nil, routing.ErrNoReplicas
		case <-pushed:
		}
	}
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
		slices.Sort(tmp)
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
