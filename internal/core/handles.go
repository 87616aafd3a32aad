package core

import (
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/codegen"
	"repro/internal/metrics"
)

// This file is the one place in the package that looks metrics up by name
// (`make lint` enforces it). Everything a call records goes through a
// handle bound here once per call site, so the call path itself makes no
// name concatenation, map lookup or registry lock.

// A methodHandle is one stub method's bound bookkeeping: the metrics and
// call-graph edge its calls feed. A stub binds it on the method's first
// completed call, so the registry and the collector show exactly the
// names and edges that have seen an event, as if each call looked them up.
type methodHandle struct {
	calls   *metrics.Counter   // component.calls.<callee>.<method>
	latency *metrics.Histogram // component.latency_us.<callee>
	edge    *callgraph.EdgeHandle
	served  lazyCounter // component.served.<callee>: on the first local call
	errors  lazyCounter // component.errors.<callee>.<method>: on the first error
}

// A lazyCounter binds its counter on first use, so a counter that never
// fires never appears in a snapshot.
type lazyCounter struct {
	reg  *metrics.Registry
	name string
	c    atomic.Pointer[metrics.Counter]
}

func (l *lazyCounter) inc() {
	c := l.c.Load()
	if c == nil {
		// Racing binders get the same counter from the registry.
		c = l.reg.Counter(l.name)
		l.c.Store(c)
	}
	c.Inc()
}

// record accounts one completed call.
func (h *methodHandle) record(elapsed time.Duration, remote, failed bool) {
	if h.edge != nil {
		h.edge.Record(elapsed, 0, remote, failed)
	}
	h.calls.Inc()
	if !remote {
		// Local calls are served by this process; count them toward its
		// load so the autoscaler sees colocated traffic too.
		h.served.inc()
	}
	if failed {
		h.errors.inc()
	}
	h.latency.Put(float64(elapsed.Microseconds()))
}

// handle returns m's bound handle, binding it on first use. Slots are
// indexed by codegen.MethodSpec.Index, which Register assigns.
func (mc *measuredConn) handle(m *codegen.MethodSpec) *methodHandle {
	slot := &mc.handles[m.Index]
	if h := slot.Load(); h != nil {
		return h
	}
	r := mc.runtime
	short := ShortName(mc.callee)
	h := &methodHandle{
		calls:   r.opts.Metrics.Counter("component.calls." + short + "." + m.Name),
		latency: r.opts.Metrics.Histogram("component.latency_us."+short, nil),
		served:  lazyCounter{reg: r.opts.Metrics, name: "component.served." + short},
		errors:  lazyCounter{reg: r.opts.Metrics, name: "component.errors." + short + "." + m.Name},
	}
	if r.opts.Graph != nil {
		h.edge = r.opts.Graph.Edge(mc.caller, mc.callee, m.Name)
	}
	if !slot.CompareAndSwap(nil, h) {
		return slot.Load()
	}
	return h
}

// servedHandles returns the counter and latency histogram a hosted
// component's server-side handlers record into.
func (r *Runtime) servedHandles(component string) (*metrics.Counter, *metrics.Histogram) {
	short := ShortName(component)
	return r.opts.Metrics.Counter("component.served." + short),
		r.opts.Metrics.Histogram("component.served_latency_us."+short, nil)
}
