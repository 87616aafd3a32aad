// Package proclet implements the small, environment-agnostic daemon linked
// into every application binary (paper §4.3). A proclet manages the
// components hosted in its process: it registers itself with the runtime
// over the control-plane pipe (RegisterReplica), learns which components to
// host (ComponentsToHost), asks for components it needs to call
// (StartComponent), serves hosted components on the data plane, and ships
// load, metrics, logs, traces, and call-graph edges back to its envelope.
package proclet

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// Options configures a Proclet.
type Options struct {
	// Conn is the control-plane connection to the envelope.
	Conn *pipe.Conn
	// ProcletID uniquely identifies this replica (e.g. "cart/2").
	ProcletID string
	// Group is this replica's colocation group.
	Group string
	// Version is the application version, used for atomic rollouts.
	Version string
	// Fill injects weaver state into component implementations (see
	// core.Options.Fill). The logger passed through is the proclet's.
	Fill func(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error
	// MaxInflight bounds concurrently executing data-plane requests in
	// this replica; MaxQueue bounds the admission wait queue beyond that.
	// Zero means unlimited (see rpc.ServerOptions).
	MaxInflight int
	MaxQueue    int
	// ReportInterval is how often load reports and telemetry batches are
	// shipped (default 500ms).
	ReportInterval time.Duration
	// TraceFraction is the sampled fraction of traces (default 0.01).
	TraceFraction float64
	// Logger is the proclet's own logger. Component logs are routed to the
	// envelope at its minimum level.
	Logger *logging.Logger
	// BypassAssignmentDispatch disables assignment-aware local dispatch:
	// colocated routed calls always take the local fast path, even when the
	// affinity assignment maps the key to a sibling replica. This is the
	// historical (buggy) behavior; it exists only so the simulation harness
	// can demonstrate rediscovering the bug from a seed. Never set it in
	// production deployments.
	BypassAssignmentDispatch bool
}

// Proclet is the per-process daemon.
type Proclet struct {
	opts    Options
	runtime *core.Runtime
	srv     *rpc.Server
	addr    string

	metrics *metrics.Registry
	logBuf  *logging.Buffer
	tracer  *tracing.Recorder
	graph   *callgraph.Collector

	mu     sync.Mutex
	hosted map[string]bool
	// routes holds the data-plane conn to each remote component; a
	// component is in it once StartComponent was sent for it or a routing
	// push named it. Each conn owns its route's epoch and replica table.
	routes   map[string]*core.DataPlaneConn
	maxEpoch uint64 // highest routing/placement epoch seen anywhere

	// Report-loop state. Only the report loop touches it; each report is
	// built in report and sent before the next one reuses it (Send encodes
	// a message before it returns).
	lastCalls  float64
	lastReport time.Time
	report     reportBufs

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
	err          atomic.Value // error that terminated the proclet
}

// Start creates a proclet, registers it with the envelope, and begins
// serving. It returns once registration completes; use Wait to block until
// shutdown.
func Start(ctx context.Context, opts Options) (*Proclet, error) {
	if opts.Conn == nil {
		return nil, fmt.Errorf("proclet: no control-plane connection")
	}
	if opts.ReportInterval <= 0 {
		opts.ReportInterval = 500 * time.Millisecond
	}
	if opts.TraceFraction == 0 {
		opts.TraceFraction = 0.01
	}
	if opts.Logger == nil {
		opts.Logger = logging.New(logging.Options{Component: "proclet", Replica: opts.ProcletID, Min: logging.LevelInfo})
	}

	p := &Proclet{
		opts:       opts,
		metrics:    metrics.NewRegistry(),
		logBuf:     logging.NewBuffer(100000),
		tracer:     tracing.NewRecorder(100000, opts.TraceFraction),
		graph:      callgraph.NewCollector(),
		hosted:     map[string]bool{},
		routes:     map[string]*core.DataPlaneConn{},
		shutdownCh: make(chan struct{}),
	}

	p.srv = rpc.NewServerWithOptions(rpc.ServerOptions{
		MaxInflight: opts.MaxInflight,
		MaxQueue:    opts.MaxQueue,
	})
	addr, err := p.srv.Listen(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("proclet: data plane listen: %w", err)
	}
	p.addr = addr

	componentLogger := logging.New(logging.Options{
		Component: "app",
		Replica:   opts.ProcletID,
		Min:       opts.Logger.MinLevel(),
		Sink:      p.logBuf,
	})
	routedLocal := p.routedShardLocal
	if opts.BypassAssignmentDispatch {
		routedLocal = nil
	}
	p.runtime = core.NewRuntime(core.Options{
		Hosted: p.isHosted,
		RemoteConn: func(reg *codegen.Registration) (codegen.Conn, error) {
			return p.remoteConn(reg)
		},
		RoutedLocal: routedLocal,
		Fill: func(impl any, name string, resolve func(reflect.Type) (any, error)) error {
			if opts.Fill == nil {
				return fmt.Errorf("proclet: no fill function configured")
			}
			return opts.Fill(impl, name, componentLogger.With(core.ShortName(name)), resolve)
		},
		Logger:  opts.Logger,
		Graph:   p.graph,
		Tracer:  p.tracer,
		Metrics: p.metrics,
	})

	go p.recvLoop(ctx)

	// Fetch and host the initial component assignment BEFORE registering:
	// registration publishes our data-plane address to other proclets, so
	// every assigned component's handlers must be serving by then.
	reply, err := opts.Conn.Call(ctx, &pipe.Message{Kind: pipe.KindComponentsToHost})
	if err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("proclet: fetching components to host: %w", err)
	}
	if reply.HostComponents != nil {
		if err := p.hostComponents(ctx, reply.HostComponents.Components, reply.HostComponents.Version); err != nil {
			p.srv.Close()
			return nil, err
		}
	}

	if err := p.send(p.registrationMsg()); err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("proclet: registering replica: %w", err)
	}

	p.lastReport = time.Now()
	go p.reportLoop(ctx)
	return p, nil
}

// registrationMsg builds a complete RegisterReplica message reflecting the
// proclet's current observed state: hosted components, applied routing
// epochs, and the highest epoch seen. A rebuilt manager recovers its
// control state from exactly this message (KindReregister), so it must
// carry everything the control plane cannot rederive on its own.
func (p *Proclet) registrationMsg() *pipe.Message {
	p.mu.Lock()
	hosted := make([]string, 0, len(p.hosted))
	for c := range p.hosted {
		hosted = append(hosted, c)
	}
	sort.Strings(hosted)
	applied := make(map[string]uint64, len(p.routes))
	for c, conn := range p.routes {
		if v, _ := conn.Applied(); v > 0 {
			applied[c] = v
		}
	}
	epoch := p.maxEpoch
	p.mu.Unlock()
	return &pipe.Message{
		Kind: pipe.KindRegisterReplica,
		RegisterReplica: &pipe.RegisterReplica{
			ProcletID: p.opts.ProcletID,
			Group:     p.opts.Group,
			Pid:       int64(os.Getpid()),
			Addr:      p.addr,
			Version:   p.opts.Version,
			Hosted:    hosted,
			Routing:   applied,
			Epoch:     epoch,
		},
	}
}

// noteEpoch records the highest epoch observed on any control push. Caller
// holds p.mu.
func (p *Proclet) noteEpochLocked(v uint64) {
	if v > p.maxEpoch {
		p.maxEpoch = v
	}
}

// Addr returns the proclet's data-plane address.
func (p *Proclet) Addr() string { return p.addr }

// Group returns the colocation group this proclet belongs to.
func (p *Proclet) Group() string { return p.opts.Group }

// Hosted returns the sorted components this proclet currently hosts.
func (p *Proclet) Hosted() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.hosted))
	for c := range p.hosted {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Runtime returns the component runtime backing this proclet.
func (p *Proclet) Runtime() *core.Runtime { return p.runtime }

// Metrics returns the proclet's metrics registry.
func (p *Proclet) Metrics() *metrics.Registry { return p.metrics }

// InjectDataPlaneDelay makes the data-plane server add d of latency to
// every dispatched request (0 clears it). The chaos harness uses it to
// simulate a slow or flapping replica.
func (p *Proclet) InjectDataPlaneDelay(d time.Duration) { p.srv.SetDelay(d) }

// InjectFlushStall makes the data-plane server stall d before every
// response-flusher batch write (0 clears it), forcing concurrent responses
// through the write-coalescing paths. The chaos and sim harnesses use it as
// the degrade-dataplane-batching fault.
func (p *Proclet) InjectFlushStall(d time.Duration) { p.srv.SetFlushStall(d) }

// InjectReadStall makes the data-plane server stall d before every batched
// frame read (0 clears it), so inbound requests pile up in the socket
// buffer and arrive in deep read batches. The chaos and sim harnesses use
// it as the stall-read (slow reader) fault.
func (p *Proclet) InjectReadStall(d time.Duration) { p.srv.SetReadStall(d) }

// Route returns the data-plane connection this proclet uses to call the
// named remote component, if one has been built. Tests use it to observe
// breaker and hedging state.
func (p *Proclet) Route(component string) (*core.DataPlaneConn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, ok := p.routes[component]
	return conn, ok
}

// Wait blocks until the proclet shuts down and returns the terminating
// error, if any.
func (p *Proclet) Wait() error {
	<-p.shutdownCh
	if e, ok := p.err.Load().(error); ok {
		return e
	}
	return nil
}

// Shutdown terminates the proclet: components are shut down and the data
// plane closed. A graceful shutdown (err == nil, e.g. a scale-down) first
// drains the data plane: new requests are refused with a retryable
// "unavailable" status while queued and in-flight calls run to completion,
// so a replica leaving the fleet drops no requests.
func (p *Proclet) Shutdown(err error) {
	p.shutdownOnce.Do(func() {
		if err != nil {
			p.err.Store(err)
		} else {
			dctx, dcancel := context.WithTimeout(context.Background(), 3*time.Second)
			_ = p.srv.Drain(dctx)
			dcancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = p.runtime.Shutdown(ctx)
		p.srv.Close()
		p.mu.Lock()
		for _, conn := range p.routes {
			conn.Close()
		}
		p.mu.Unlock()
		// Closing the control-plane connection tells the envelope this
		// replica is gone (the pipe-EOF liveness signal).
		_ = p.opts.Conn.Close()
		close(p.shutdownCh)
	})
}

func (p *Proclet) isHosted(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hosted[name]
}

// send transmits a fire-and-forget message.
func (p *Proclet) send(m *pipe.Message) error {
	return p.opts.Conn.Send(m)
}

// recvLoop dispatches envelope messages until the pipe breaks.
//
// Host and stop requests run on their own goroutines: hosting a component
// initializes it, which resolves its dependencies, which can block waiting
// for routing info — info that only this loop can deliver. Handling them
// inline would deadlock the control plane. Routing pushes are applied
// inline so they keep their pipe order.
func (p *Proclet) recvLoop(ctx context.Context) {
	for {
		m, err := p.opts.Conn.Recv()
		if err != nil {
			// The envelope died or closed the pipe: shut down. This is the
			// mechanism by which orphaned proclets exit.
			p.Shutdown(fmt.Errorf("proclet: control plane closed: %w", err))
			return
		}
		switch m.Kind {
		case pipe.KindHostComponents:
			m := m
			go func() {
				var err error
				if m.HostComponents != nil {
					err = p.hostComponents(ctx, m.HostComponents.Components, m.HostComponents.Version)
					if err != nil {
						p.opts.Logger.Error("hosting components", err)
					}
				}
				_ = p.opts.Conn.Ack(m, nil, err)
			}()
		case pipe.KindStopComponent:
			m := m
			go func() {
				var err error
				if m.StopComponent != nil {
					err = p.unhostComponent(m.StopComponent.Component, m.StopComponent.Version)
					if err != nil {
						p.opts.Logger.Error("stopping component", err)
					}
				}
				_ = p.opts.Conn.Ack(m, nil, err)
			}()
		case pipe.KindRoutingInfo:
			if m.RoutingInfo != nil {
				p.updateRouting(m.RoutingInfo)
			}
			_ = p.opts.Conn.Ack(m, nil, nil)
		case pipe.KindReregister:
			// A rebuilt manager is recovering observed state: answer with a
			// fresh, complete registration, then ack. The pipe keeps order,
			// so the envelope has relayed the registration when the ack
			// arrives.
			_ = p.send(p.registrationMsg())
			_ = p.opts.Conn.Ack(m, nil, nil)
		case pipe.KindShutdown:
			p.Shutdown(nil)
			return
		}
	}
}

// hostComponents initializes and serves any newly assigned components.
// version is the routing epoch of the placement decision (0 for the
// initial assignment); it fences the local-route flip so a delayed host
// push cannot override a newer placement.
func (p *Proclet) hostComponents(ctx context.Context, components []string, version uint64) error {
	var fresh []string
	p.mu.Lock()
	p.noteEpochLocked(version)
	for _, c := range components {
		if !p.hosted[c] {
			p.hosted[c] = true
			fresh = append(fresh, c)
		}
	}
	p.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	p.opts.Logger.Info("hosting components", "components", strings.Join(shortNames(fresh), ","))
	if err := core.HostComponents(ctx, p.runtime, p.srv, fresh); err != nil {
		return err
	}
	// Flip local callers of the newly hosted components to direct dispatch
	// through their existing stubs. Stubs resolved while the component was remote
	// pick up the new route on their next call.
	for _, c := range fresh {
		if err := p.runtime.PromoteLocal(ctx, c, version); err != nil {
			return err
		}
	}
	return nil
}

// unhostComponent stops hosting one component (the drain side of a live
// re-placement move): local callers flip back to the data plane, then the
// component's handlers are unregistered, draining in-flight remote calls.
func (p *Proclet) unhostComponent(component string, version uint64) error {
	p.mu.Lock()
	p.noteEpochLocked(version)
	wasHosted := p.hosted[component]
	delete(p.hosted, component)
	p.mu.Unlock()
	if !wasHosted {
		return nil
	}
	// Demote before unregistering: once local callers use the data plane,
	// nothing new targets the handlers and the drain can only shrink. The
	// routing epoch that moved the component away was broadcast before this
	// request, so building the data-plane conn does not block.
	if err := p.runtime.DemoteLocal(component, version); err != nil {
		return err
	}
	if err := core.UnhostComponent(p.srv, component); err != nil {
		return err
	}
	p.opts.Logger.Info("stopped hosting component", "component", core.ShortName(component))
	return nil
}

// listenAddr is the address the data-plane server binds: any free port on
// the loopback interface.
const listenAddr = "127.0.0.1:0"

// newConn builds the data-plane conn to one remote component. The
// proclet's span recorder is handed to the conn so hedge-loser spans land
// in the same export stream as served-call spans.
func newConn(component string, routed bool, tracer *tracing.Recorder) *core.DataPlaneConn {
	var bal routing.Balancer
	if routed {
		bal = routing.NewAffinity()
	} else {
		bal = routing.NewRoundRobin()
	}
	// NumConns zero: stripe each peer min(4, GOMAXPROCS) wide.
	return core.NewDataPlaneConnWith(component, bal, core.ConnOptions{Tracer: tracer})
}

// remoteConn builds (once per component) the data-plane connection used to
// call a component not hosted here, asking the manager to start it.
//
// Setup is deliberately lazy: the conn is returned without waiting for the
// first routing push. A blocking wait here deadlocks static colocation
// configs where two groups' components reference each other — each group
// would sit in component init waiting for the other group's routing, and
// neither would reach RegisterReplica. Early calls instead wait inside the
// conn, for at most the conn's 15 s grace, while the manager spins the component
// up; the routing push that names its first replica wakes them
// (DataPlaneConn.UpdateRouting).
func (p *Proclet) remoteConn(reg *codegen.Registration) (codegen.Conn, error) {
	p.mu.Lock()
	conn, ok := p.routes[reg.Name]
	if !ok {
		conn = newConn(reg.Name, reg.Routed, p.tracer)
		p.routes[reg.Name] = conn
	}
	p.mu.Unlock()

	if !ok {
		if err := p.send(&pipe.Message{
			Kind:           pipe.KindStartComponent,
			StartComponent: &pipe.StartComponent{Component: reg.Name, Routed: reg.Routed},
		}); err != nil {
			return nil, fmt.Errorf("proclet: StartComponent(%s): %w", reg.Name, err)
		}
	}
	return conn, nil
}

// routedShardLocal implements core.Options.RoutedLocal: it reports whether
// this replica owns a routed component's shard under the affinity
// assignment this proclet has applied. known is false before any
// assignment arrives (warm-up, or an unrouted component), which keeps the
// local fast path.
func (p *Proclet) routedShardLocal(component string, shard uint64) (owns, known bool) {
	p.mu.Lock()
	conn := p.routes[component]
	p.mu.Unlock()
	if conn == nil {
		return false, false
	}
	owners := conn.Owners(shard)
	if len(owners) == 0 {
		return false, false
	}
	for _, o := range owners {
		if o == p.addr {
			return true, true
		}
	}
	return false, true
}

// updateRouting applies a routing push from the envelope. The conn fences
// stale pushes itself.
func (p *Proclet) updateRouting(ri *pipe.RoutingInfo) {
	p.mu.Lock()
	conn, ok := p.routes[ri.Component]
	if !ok {
		// Routing info for a component we have not asked about yet: create
		// the conn so a later remoteConn finds it ready.
		reg, found := codegen.Find(ri.Component)
		conn = newConn(ri.Component, found && reg.Routed, p.tracer)
		p.routes[ri.Component] = conn
	}
	p.noteEpochLocked(ri.Version)
	p.mu.Unlock()
	conn.UpdateRouting(ri.Version, ri.Replicas, ri.Assignment)
}

// RoutingVersion reports the routing epoch this proclet has applied for a
// component's data-plane route (0 before any routing info arrived). The
// conn publishes the epoch under the lock it applies the push under, so
// observing version v implies Pick sees assignment v (or newer).
func (p *Proclet) RoutingVersion(component string) uint64 {
	if conn, ok := p.Route(component); ok {
		v, _ := conn.Applied()
		return v
	}
	return 0
}

// RoutingReplicas reports how many replicas this proclet's client-side
// balancer currently knows for a component (by full registration name).
// Routing info propagates asynchronously from the manager, so code that
// needs a stable replica set — e.g. a test asserting routing affinity —
// must wait for the client-visible count, not just the manager's.
func (p *Proclet) RoutingReplicas(component string) int {
	if conn, ok := p.Route(component); ok {
		_, addrs := conn.Applied()
		return len(addrs)
	}
	return 0
}

// reportLoop periodically ships load reports and telemetry.
func (p *Proclet) reportLoop(ctx context.Context) {
	ticker := time.NewTicker(p.opts.ReportInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.reportOnce()
		case <-p.shutdownCh:
			return
		case <-ctx.Done():
			return
		}
	}
}

// reportBufs holds the messages and snapshot slices reportOnce builds its
// reports in, reused from report to report.
type reportBufs struct {
	msg     pipe.Message
	load    pipe.LoadReport
	logs    pipe.LogBatch
	spans   pipe.TraceBatch
	edges   pipe.GraphBatch
	metrics []metrics.Snapshot
	process []metrics.Snapshot
}

func (p *Proclet) reportOnce() {
	r := &p.report
	r.metrics = p.metrics.AppendSnapshot(r.metrics)
	snap := r.metrics

	// Load = delta of calls served by this replica per second.
	var totalCalls float64
	for _, s := range snap {
		if s.Kind == metrics.KindCounter && strings.HasPrefix(s.Name, "component.served.") {
			totalCalls += s.Value
		}
	}
	now := time.Now()
	elapsed := now.Sub(p.lastReport).Seconds()
	var rate float64
	if elapsed > 0 {
		rate = (totalCalls - p.lastCalls) / elapsed
	}
	p.lastCalls = totalCalls
	p.lastReport = now

	// The process-global registry carries the transport-level metrics
	// (rpc.server.shed, rpc.breaker.*, rpc.client.*) to the manager's
	// merged view and the dashboard. It rides apart from snap because
	// proclets sharing a process share it: the manager keeps one snapshot
	// per process, so one proclet per interval ships it.
	var process []metrics.Snapshot
	if claimProcessReport(now, p.opts.ReportInterval) {
		r.process = metrics.Default.AppendSnapshot(r.process)
		process = r.process
	}
	r.load = pipe.LoadReport{Healthy: true, CallsPerSec: rate, Metrics: snap, Process: process}
	r.msg = pipe.Message{Kind: pipe.KindLoadReport, LoadReport: &r.load}
	_ = p.send(&r.msg)

	entries := p.logBuf.Drain()
	if len(entries) > 0 {
		r.logs.Entries = entries
		r.msg = pipe.Message{Kind: pipe.KindLogBatch, LogBatch: &r.logs}
		_ = p.send(&r.msg)
	}
	p.logBuf.Recycle(entries)
	if spans := p.tracer.Drain(); len(spans) > 0 {
		r.spans.Spans = spans
		r.msg = pipe.Message{Kind: pipe.KindTraceBatch, TraceBatch: &r.spans}
		_ = p.send(&r.msg)
	}
	if edges := p.graph.Drain(); len(edges) > 0 {
		r.edges.Edges = edges
		r.msg = pipe.Message{Kind: pipe.KindGraphBatch, GraphBatch: &r.edges}
		_ = p.send(&r.msg)
	}
}

// processReportDue is the time (Unix ns) from which the next load report
// of any proclet in this process carries the process-global registry.
var processReportDue atomic.Int64

// claimProcessReport reports whether the load report built at now carries
// the process-global registry, and if so moves the shared due time one
// interval on. A claim is taken up to a quarter interval early, so a lone
// proclet whose ticks jitter still ships on every tick; after a stall
// longer than an interval the schedule restarts from now rather than
// catching up. Each claim moves the schedule a whole interval, so a process
// ships about one snapshot per interval however many proclets it hosts.
func claimProcessReport(now time.Time, interval time.Duration) bool {
	n := now.UnixNano()
	due := processReportDue.Load()
	if n < due-int64(interval/4) {
		return false
	}
	next := due + int64(interval)
	if next <= n {
		next = n + int64(interval)
	}
	return processReportDue.CompareAndSwap(due, next)
}

func shortNames(full []string) []string {
	out := make([]string, len(full))
	for i, f := range full {
		out[i] = core.ShortName(f)
	}
	return out
}
