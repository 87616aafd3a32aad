// Package callgraph builds the fine-grained component call graph the paper
// describes in §5.1: who calls whom, how often, how many bytes cross each
// edge, and how long calls take. The runtime feeds it from stubs; the
// manager uses it to identify chatty component pairs (candidates for
// co-location), bottleneck components, and the critical path of a request.
package callgraph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tracing"
)

// An Edge aggregates statistics for calls from one component to another.
// "client" is the synthetic caller for calls entering from outside any
// component (e.g. an HTTP front door).
type Edge struct {
	Caller string `tag:"1"`
	Callee string `tag:"2"`
	Method string `tag:"3"`

	Calls      uint64 `tag:"4"`
	Errors     uint64 `tag:"5"`
	Bytes      uint64 `tag:"6"` // serialized request+response bytes
	TotalNanos int64  `tag:"7"` // sum of call latencies
	Remote     uint64 `tag:"8"` // calls that crossed a process boundary
}

// MeanLatency returns the average latency of calls on this edge.
func (e *Edge) MeanLatency() time.Duration {
	if e.Calls == 0 {
		return 0
	}
	return time.Duration(e.TotalNanos / int64(e.Calls))
}

type edgeKey struct {
	caller, callee, method string
}

// An EdgeHandle accumulates one edge's statistics with atomic adds. A stub
// binds the handle for its (caller, callee, method) once and records every
// call through it, so recording takes no lock and makes no map lookup.
type EdgeHandle struct {
	// Every call adds to calls and nanos; they lead so they share a cache
	// line.
	calls  atomic.Uint64
	nanos  atomic.Uint64 // two's complement of TotalNanos
	errors atomic.Uint64
	bytes  atomic.Uint64
	remote atomic.Uint64
	key    edgeKey
}

// Record adds one call observation to the edge.
func (h *EdgeHandle) Record(d time.Duration, bytes int, remote, errored bool) {
	h.calls.Add(1)
	h.nanos.Add(uint64(d.Nanoseconds()))
	if bytes != 0 {
		h.bytes.Add(uint64(bytes))
	}
	if remote {
		h.remote.Add(1)
	}
	if errored {
		h.errors.Add(1)
	}
}

// load returns the edge's current statistics; with reset it also zeroes
// them. Fields are read one by one, so a call recorded concurrently with a
// reset may split its fields across two drains; every observation is still
// counted exactly once in the sum of drains.
func (h *EdgeHandle) load(reset bool) Edge {
	get := func(v *atomic.Uint64) uint64 {
		if reset {
			return v.Swap(0)
		}
		return v.Load()
	}
	return Edge{Caller: h.key.caller, Callee: h.key.callee, Method: h.key.method,
		Calls: get(&h.calls), Errors: get(&h.errors), Bytes: get(&h.bytes),
		TotalNanos: int64(get(&h.nanos)), Remote: get(&h.remote)}
}

func (e *Edge) empty() bool {
	return e.Calls == 0 && e.Errors == 0 && e.Bytes == 0 && e.TotalNanos == 0 && e.Remote == 0
}

// A Collector accumulates edges. It is safe for concurrent use and cheap
// enough to run always-on: the mutex guards only the set of edges, and
// counts live in each edge's atomic EdgeHandle. An edge appears in Edges
// and Drain only once it has something to report, so a bound but unused
// handle is invisible.
type Collector struct {
	mu    sync.Mutex
	edges map[edgeKey]*EdgeHandle
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{edges: map[edgeKey]*EdgeHandle{}}
}

// Edge returns the handle for calls from caller to callee's method,
// creating it on first use. The handle stays valid across Drain and Reset.
func (c *Collector) Edge(caller, callee, method string) *EdgeHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edgeLocked(edgeKey{caller, callee, method})
}

func (c *Collector) edgeLocked(k edgeKey) *EdgeHandle {
	h := c.edges[k]
	if h == nil {
		h = &EdgeHandle{key: k}
		c.edges[k] = h
	}
	return h
}

// Record adds one call observation. Call sites that record repeatedly
// should bind an EdgeHandle with Edge instead.
func (c *Collector) Record(caller, callee, method string, d time.Duration, bytes int, remote, errored bool) {
	if c == nil {
		return
	}
	c.Edge(caller, callee, method).Record(d, bytes, remote, errored)
}

// Edges returns a copy of all edges, sorted by (caller, callee, method).
func (c *Collector) Edges() []Edge {
	return c.collect(false)
}

// Reset discards all recorded edges.
func (c *Collector) Reset() {
	c.collect(true)
}

// Drain returns all recorded edges and resets the collector. Proclets use
// it to ship deltas to the manager.
func (c *Collector) Drain() []Edge {
	return c.collect(true)
}

// collect snapshots every non-empty edge, sorted, zeroing them with reset.
func (c *Collector) collect(reset bool) []Edge {
	c.mu.Lock()
	out := make([]Edge, 0, len(c.edges))
	for _, h := range c.edges {
		if e := h.load(reset); !e.empty() {
			out = append(out, e)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return a.Method < b.Method
	})
	return out
}

// Merge folds a batch of edges (e.g. shipped from another replica) into c.
func (c *Collector) Merge(batch []Edge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, in := range batch {
		h := c.edgeLocked(edgeKey{in.Caller, in.Callee, in.Method})
		h.calls.Add(in.Calls)
		h.errors.Add(in.Errors)
		h.bytes.Add(in.Bytes)
		h.nanos.Add(uint64(in.TotalNanos))
		h.remote.Add(in.Remote)
	}
}

// A Graph is an analyzed snapshot of the call graph.
type Graph struct {
	Edges []Edge
}

// Analyze builds a Graph from the collector's current edges.
func (c *Collector) Analyze() *Graph {
	return &Graph{Edges: c.Edges()}
}

// Components returns all component names appearing in the graph, sorted.
func (g *Graph) Components() []string {
	set := map[string]bool{}
	for _, e := range g.Edges {
		if e.Caller != "" {
			set[e.Caller] = true
		}
		set[e.Callee] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// PairTraffic aggregates bidirectional traffic between unordered component
// pairs, used to find chatty pairs.
type PairTraffic struct {
	A, B  string
	Calls uint64
	Bytes uint64
}

// ChattyPairs returns component pairs ordered by descending call volume.
// These are the co-location candidates of §5.1.
func (g *Graph) ChattyPairs() []PairTraffic {
	agg := map[[2]string]*PairTraffic{}
	for _, e := range g.Edges {
		if e.Caller == "" || e.Caller == e.Callee {
			continue
		}
		a, b := e.Caller, e.Callee
		if a > b {
			a, b = b, a
		}
		k := [2]string{a, b}
		p := agg[k]
		if p == nil {
			p = &PairTraffic{A: a, B: b}
			agg[k] = p
		}
		p.Calls += e.Calls
		p.Bytes += e.Bytes
	}
	out := make([]PairTraffic, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].A+out[i].B < out[j].A+out[j].B
	})
	return out
}

// Load describes one component's aggregate call load.
type Load struct {
	Component  string
	Calls      uint64
	TotalNanos int64
}

// Bottlenecks returns components ordered by descending total busy time
// (sum of inbound call latencies): the components where requests spend the
// most time.
func (g *Graph) Bottlenecks() []Load {
	agg := map[string]*Load{}
	for _, e := range g.Edges {
		l := agg[e.Callee]
		if l == nil {
			l = &Load{Component: e.Callee}
			agg[e.Callee] = l
		}
		l.Calls += e.Calls
		l.TotalNanos += e.TotalNanos
	}
	out := make([]Load, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNanos != out[j].TotalNanos {
			return out[i].TotalNanos > out[j].TotalNanos
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// Dot renders the graph in Graphviz dot format, with edges weighted by
// call volume. Useful for the CLI's "graph" subcommand and debugging.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph components {\n  rankdir=LR;\n")
	for _, c := range g.Components() {
		fmt.Fprintf(&b, "  %q;\n", shortName(c))
	}
	agg := map[[2]string]uint64{}
	for _, e := range g.Edges {
		caller := e.Caller
		if caller == "" {
			caller = "client"
		}
		agg[[2]string{caller, e.Callee}] += e.Calls
	}
	keys := make([][2]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d\"];\n", shortName(k[0]), shortName(k[1]), agg[k])
	}
	b.WriteString("}\n")
	return b.String()
}

func shortName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// CriticalPath reconstructs the longest-latency chain of spans in one
// trace: the sequence of calls that determined the request's end-to-end
// latency. Spans must all belong to the same trace.
func CriticalPath(spans []tracing.Span) []tracing.Span {
	if len(spans) == 0 {
		return nil
	}
	children := map[uint64][]tracing.Span{}
	byID := map[uint64]tracing.Span{}
	var roots []tracing.Span
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	// The root with the longest duration anchors the path; then greedily
	// descend into the child with the latest end time, which is the one
	// that gated the parent's completion.
	sort.Slice(roots, func(i, j int) bool { return roots[i].Duration() > roots[j].Duration() })
	var path []tracing.Span
	cur := roots[0]
	for {
		path = append(path, cur)
		kids := children[cur.ID]
		if len(kids) == 0 {
			return path
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].EndNanos > kids[j].EndNanos })
		cur = kids[0]
	}
}
