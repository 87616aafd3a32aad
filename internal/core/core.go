// Package core implements the component runtime at the heart of the paper's
// proposal (§3, §4): it instantiates components, injects their dependencies,
// and transparently turns method invocations into local procedure calls when
// caller and callee share a process, or remote procedure calls over the
// custom data plane when they do not.
//
// The package is deployment-agnostic: a deployer (single-process,
// multiprocess, or simulated cloud) configures a Runtime with two policy
// functions — which components this process hosts, and how to reach the
// ones it does not — and the runtime does the rest.
package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/tracing"
)

// Options configures a Runtime.
type Options struct {
	// Hosted reports whether this process hosts (runs the implementation
	// of) the named component. Nil means "host everything" (single-process
	// deployment).
	Hosted func(name string) bool

	// RemoteConn returns a connection for invoking a component this
	// process does not host. It is required if Hosted can return false.
	RemoteConn func(reg *codegen.Registration) (codegen.Conn, error)

	// RoutedLocal, if non-nil, is consulted before dispatching a routed
	// (sharded) call to a colocated implementation. It reports whether this
	// process owns the shard under the current affinity assignment; known
	// is false when no assignment has been applied yet (single replica,
	// warm-up), in which case the local fast path is kept. When the key
	// maps to a sibling replica the call crosses the data plane instead,
	// so affinity routing holds even for colocated callers.
	RoutedLocal func(component string, shard uint64) (owns, known bool)

	// Fill injects runtime state into a freshly allocated component
	// implementation: the Implements embedding's logger, Ref fields, and
	// Listener fields. resolve returns the client for a referenced
	// component interface type. Fill is provided by the public weaver
	// package, which owns those field types.
	Fill func(impl any, name string, resolve func(t reflect.Type) (any, error)) error

	// Logger receives runtime and component log output. Defaults to a
	// stderr logger.
	Logger *logging.Logger

	// Graph, if non-nil, receives a call-graph edge for every component
	// method call, local or remote.
	Graph *callgraph.Collector

	// Tracer, if non-nil, records spans for sampled traces.
	Tracer *tracing.Recorder

	// Metrics receives per-call counters and latency histograms. Defaults
	// to metrics.Default.
	Metrics *metrics.Registry
}

// Runtime instantiates and resolves components.
type Runtime struct {
	opts Options

	mu    sync.Mutex
	comps map[string]*comp
}

// connState pins one resolution of a component's call path: either a local
// implementation (direct method dispatch) or a remote data-plane conn.
// Exactly one of impl and remote is non-nil. States are immutable; the
// resolver swaps the whole pointer, so a call that loaded a state completes
// on the connection it started with even if the component moves mid-call.
type connState struct {
	impl    any          // non-nil: callee is colocated, dispatch directly
	remote  codegen.Conn // non-nil: callee is elsewhere, cross the data plane
	version uint64       // routing epoch that installed this state (0 = initial)
}

// comp tracks one component's state within this process.
type comp struct {
	reg      *codegen.Registration
	impl     any            // non-nil once a hosted component is initialized
	clients  map[string]any // caller name -> interface value handed out
	initing  bool           // cycle detection
	initErr  error
	initDone bool

	// route is the swappable resolver behind every stub handed out for
	// this component. Stubs load it per call; PromoteLocal and DemoteLocal
	// swap it when the manager moves the component at runtime, so local
	// vs. remote is no longer frozen at Get time.
	route   atomic.Pointer[connState]
	routeMu sync.Mutex // serializes swaps (and the blocking work behind them)
	// remoteConn caches the data-plane conn across local/remote flips, so
	// moving a component away and back does not rebuild TCP state.
	remoteConn codegen.Conn
}

// NewRuntime returns a runtime over all registered components.
func NewRuntime(opts Options) *Runtime {
	if opts.Logger == nil {
		opts.Logger = logging.New(logging.Options{Component: "runtime"})
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.Default
	}
	r := &Runtime{opts: opts, comps: map[string]*comp{}}
	for _, reg := range codegen.All() {
		r.comps[reg.Name] = &comp{reg: reg, clients: map[string]any{}}
	}
	return r
}

// Components returns the names of all registered components, sorted.
func (r *Runtime) Components() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.comps))
	for name := range r.comps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns a client for the component with the given interface type, on
// behalf of an external caller (e.g. application main).
func (r *Runtime) Get(ctx context.Context, iface reflect.Type) (any, error) {
	reg, ok := codegen.FindByInterface(iface)
	if !ok {
		return nil, fmt.Errorf("core: no component registered for interface %v", iface)
	}
	return r.getClient(ctx, reg.Name, "")
}

// LocalImpl returns the initialized implementation of a hosted component.
// Deployers use it to wire hosted components into an RPC server.
func (r *Runtime) LocalImpl(ctx context.Context, name string) (any, error) {
	c := r.comp(name)
	if c == nil {
		return nil, fmt.Errorf("core: unknown component %q", name)
	}
	if !r.hosted(name) {
		return nil, fmt.Errorf("core: component %q is not hosted in this process", name)
	}
	if err := r.initLocal(ctx, c); err != nil {
		return nil, err
	}
	return c.impl, nil
}

// Shutdown invokes Shutdown(ctx) on every initialized hosted component that
// implements it, in reverse initialization-independent (name) order.
func (r *Runtime) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	var impls []any
	var names []string
	for name, c := range r.comps {
		if c.initDone && c.impl != nil {
			impls = append(impls, c.impl)
			names = append(names, name)
		}
	}
	r.mu.Unlock()
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var first error
	for _, impl := range impls {
		if s, ok := impl.(interface{ Shutdown(context.Context) error }); ok {
			if err := s.Shutdown(ctx); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// hosted reports whether this process hosts the named component. The
// deployer's policy function is consulted on every resolution, because in
// proclet mode the hosted set is learned from the manager after the
// runtime is constructed.
func (r *Runtime) hosted(name string) bool {
	return r.opts.Hosted == nil || r.opts.Hosted(name)
}

func (r *Runtime) comp(name string) *comp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.comps[name]
}

// getClient returns (building if necessary) the interface value handed to
// caller for the named component.
func (r *Runtime) getClient(ctx context.Context, name, caller string) (any, error) {
	c := r.comp(name)
	if c == nil {
		return nil, fmt.Errorf("core: unknown component %q", name)
	}

	r.mu.Lock()
	if cl, ok := c.clients[caller]; ok {
		r.mu.Unlock()
		return cl, nil
	}
	r.mu.Unlock()

	if err := r.ensureRoute(ctx, c); err != nil {
		return nil, err
	}
	client := c.reg.ClientStub(&measuredConn{
		runtime: r,
		caller:  caller,
		callee:  c.reg.Name,
		comp:    c,
		handles: make([]atomic.Pointer[methodHandle], len(c.reg.Methods)),
	})

	r.mu.Lock()
	defer r.mu.Unlock()
	if cl, ok := c.clients[caller]; ok {
		return cl, nil // lost a race; use the winner
	}
	c.clients[caller] = client
	return client, nil
}

// ensureRoute installs c's initial route (local or remote, per the
// deployer's Hosted policy) if none exists yet. initLocal runs outside
// routeMu: filling a component resolves its dependencies, which re-enters
// route resolution — on a dependency cycle that comes back to c itself, and
// must hit initLocal's cycle detector rather than deadlock on routeMu.
func (r *Runtime) ensureRoute(ctx context.Context, c *comp) error {
	if c.route.Load() != nil {
		return nil
	}
	if r.hosted(c.reg.Name) {
		if err := r.initLocal(ctx, c); err != nil {
			return err
		}
		c.routeMu.Lock()
		defer c.routeMu.Unlock()
		if c.route.Load() == nil {
			c.route.Store(&connState{impl: c.impl})
		}
		return nil
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if c.route.Load() != nil {
		return nil
	}
	conn, err := r.remoteForLocked(c)
	if err != nil {
		return err
	}
	c.route.Store(&connState{remote: conn})
	return nil
}

// remoteForLocked returns (building and caching if necessary) c's
// data-plane conn. Caller holds c.routeMu; the build may block waiting for
// routing info, which is why routeMu — not r.mu — guards it.
func (r *Runtime) remoteForLocked(c *comp) (codegen.Conn, error) {
	if c.remoteConn != nil {
		return c.remoteConn, nil
	}
	if r.opts.RemoteConn == nil {
		return nil, fmt.Errorf("core: component %q is remote but no RemoteConn is configured", c.reg.Name)
	}
	conn, err := r.opts.RemoteConn(c.reg)
	if err != nil {
		return nil, err
	}
	c.remoteConn = conn
	return conn, nil
}

// PromoteLocal flips a component's call path to direct local dispatch: the
// callee has become colocated with this process (live re-placement). Stubs
// keep their metrics and call-graph edges; only the route under them
// changes. version is the routing epoch of the placement decision; a
// promotion older than the currently installed epoch is ignored (version 0
// always applies — the initial assignment). Stubs handed out
// earlier pick up the flip on their next call; calls already in flight
// finish on the connection they started with.
func (r *Runtime) PromoteLocal(ctx context.Context, name string, version uint64) error {
	c := r.comp(name)
	if c == nil {
		return fmt.Errorf("core: unknown component %q", name)
	}
	// Init outside routeMu: dependency resolution may re-enter route
	// resolution for this very component (see ensureRoute).
	if err := r.initLocal(ctx, c); err != nil {
		return err
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	cur := c.route.Load()
	if cur != nil && version != 0 && version <= cur.version {
		return nil // stale flip
	}
	c.route.Store(&connState{impl: c.impl, version: version})
	return nil
}

// DemoteLocal flips a component's call path back to the data plane: the
// callee moved to another group. The same version fencing as PromoteLocal
// applies. If no stub for the component was ever resolved here, there is
// nothing to flip and DemoteLocal is a no-op. The local implementation is
// not shut down — in-flight local calls may still be executing on it.
func (r *Runtime) DemoteLocal(name string, version uint64) error {
	c := r.comp(name)
	if c == nil {
		return fmt.Errorf("core: unknown component %q", name)
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	cur := c.route.Load()
	if cur == nil {
		return nil // no callers in this process
	}
	if version != 0 && version <= cur.version {
		return nil // stale flip
	}
	conn, err := r.remoteForLocked(c)
	if err != nil {
		return err
	}
	c.route.Store(&connState{remote: conn, version: version})
	return nil
}

// RouteVersion returns the routing epoch of a component's installed route
// and whether the route is currently local. Tests use it to assert that
// observed placement flips are monotonic.
func (r *Runtime) RouteVersion(name string) (version uint64, local bool) {
	c := r.comp(name)
	if c == nil {
		return 0, false
	}
	st := c.route.Load()
	if st == nil {
		return 0, false
	}
	return st.version, st.impl != nil
}

// initLocal allocates, fills, and initializes a hosted component exactly
// once, detecting dependency cycles.
func (r *Runtime) initLocal(ctx context.Context, c *comp) error {
	r.mu.Lock()
	if c.initDone {
		err := c.initErr
		r.mu.Unlock()
		return err
	}
	if c.initing {
		r.mu.Unlock()
		return fmt.Errorf("core: dependency cycle involving component %q", c.reg.Name)
	}
	c.initing = true
	r.mu.Unlock()

	err := r.buildImpl(ctx, c)

	r.mu.Lock()
	c.initing = false
	c.initDone = true
	c.initErr = err
	r.mu.Unlock()
	return err
}

func (r *Runtime) buildImpl(ctx context.Context, c *comp) error {
	impl := reflect.New(c.reg.Impl).Interface()
	if r.opts.Fill != nil {
		resolve := func(t reflect.Type) (any, error) {
			dep, ok := codegen.FindByInterface(t)
			if !ok {
				return nil, fmt.Errorf("core: %s references unregistered interface %v", c.reg.Name, t)
			}
			return r.getClient(ctx, dep.Name, c.reg.Name)
		}
		if err := r.opts.Fill(impl, c.reg.Name, resolve); err != nil {
			return fmt.Errorf("core: filling %s: %w", c.reg.Name, err)
		}
	}
	if init, ok := impl.(interface{ Init(context.Context) error }); ok {
		if err := init.Init(ctx); err != nil {
			return fmt.Errorf("core: initializing %s: %w", c.reg.Name, err)
		}
	}
	r.opts.Logger.Debug("component initialized", "component", ShortName(c.reg.Name))
	c.impl = impl
	return nil
}

// measuredConn is the conn behind every stub: it resolves the component's
// current route on each call (so a callee that moves between groups flips
// between direct dispatch and the data plane without re-resolving the
// stub) and records metrics, call-graph edges, and trace spans through
// per-method handles bound on first use (handles.go).
type measuredConn struct {
	runtime *Runtime
	caller  string
	callee  string
	comp    *comp
	handles []atomic.Pointer[methodHandle] // by MethodSpec.Index
}

// Invoke implements codegen.Conn.
func (mc *measuredConn) Invoke(ctx context.Context, component string, m *codegen.MethodSpec, args codec.Marshaler, res codec.Unmarshaler, shard uint64, hasShard bool) error {
	r := mc.runtime

	// Load the route once: the whole call — dispatch and accounting —
	// uses the connection state it started with, even if a re-placement
	// swaps the route mid-flight.
	st := mc.comp.route.Load()
	if st == nil {
		return fmt.Errorf("core: component %q has no route", mc.callee)
	}
	remote := st.impl == nil
	remoteVia := st.remote

	// Assignment-aware local dispatch: a colocated routed call takes the
	// local fast path only when the affinity assignment maps the key to
	// this replica. Otherwise the call crosses the data plane to the
	// owning sibling, exactly as it would from a non-colocated caller.
	if !remote && hasShard && r.opts.RoutedLocal != nil {
		if owns, known := r.opts.RoutedLocal(component, shard); known && !owns {
			mc.comp.routeMu.Lock()
			conn, connErr := r.remoteForLocked(mc.comp)
			mc.comp.routeMu.Unlock()
			if connErr == nil {
				remote = true
				remoteVia = conn
			}
			// On conn-build failure keep the local path: serving the call
			// off-owner beats failing it.
		}
	}

	// Establish the span for this call. A fresh trace is started at entry
	// points (no inbound context); the root makes the sampling decision
	// here, and the bit rides every downstream hop's span context. Only
	// a sampled trace records spans, so only its hops need span ids of
	// their own: an unsampled call passes its parent's ctx through
	// unchanged, and its downstream hops inherit the same unsampled span
	// context without a context allocation.
	var sc tracing.SpanContext
	if parent, ok := tracing.FromContext(ctx); ok {
		if parent.Sampled {
			sc = parent.Child()
			ctx = tracing.ContextWith(ctx, sc)
		}
	} else if r.opts.Tracer != nil {
		sc = tracing.NewTrace()
		sc.Sampled = r.opts.Tracer.Sampled(sc.Trace)
		ctx = tracing.ContextWith(ctx, sc)
	}

	start := time.Now()
	var err error
	if remote {
		err = remoteVia.Invoke(ctx, component, m, args, res, shard, hasShard)
	} else if err = ctx.Err(); err == nil {
		m.Do(ctx, st.impl, args, res)
	}
	elapsed := time.Since(start)
	mc.handle(m).record(elapsed, remote, err != nil)

	if r.opts.Tracer != nil && sc.Sampled {
		span := tracing.Span{
			Trace:      uint64(sc.Trace),
			ID:         uint64(sc.Span),
			Parent:     uint64(sc.Parent),
			Component:  mc.callee,
			Method:     m.Name,
			Caller:     mc.caller,
			StartNanos: start.UnixNano(),
			EndNanos:   start.Add(elapsed).UnixNano(),
			Remote:     remote,
		}
		if err != nil {
			span.Err = err.Error()
		}
		r.opts.Tracer.RecordSampled(span, true)
	}
	return err
}

// ShortName trims the package path from a full component name:
// "repro/internal/boutique/CartService" -> "CartService".
func ShortName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}
