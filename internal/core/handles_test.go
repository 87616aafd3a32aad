package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/codegen"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// TestMetricNamesBindOnFirstEvent pins what a registry snapshot holds as
// call-site handles bind: nothing before the first call, the calls,
// latency and served metrics of each called method after it, and a
// method's errors counter only after its first failed call.
func TestMetricNamesBindOnFirstEvent(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := NewRuntime(Options{Fill: fillWithDep, Metrics: reg})
	ctx := context.Background()
	v, err := rt.Get(ctx, reflect.TypeOf((*Ping)(nil)).Elem())
	if err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		var out []string
		for _, s := range reg.Snapshot() {
			out = append(out, s.Name)
		}
		slices.Sort(out)
		return out
	}
	if got := names(); len(got) != 0 {
		t.Errorf("before the first call: %q, want none", got)
	}

	if _, err := v.(Ping).Ping(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"component.calls.Ping.Ping",
		"component.calls.Pong.Pong",
		"component.latency_us.Ping",
		"component.latency_us.Pong",
		"component.served.Ping",
		"component.served.Pong",
	}
	if got := names(); !slices.Equal(got, want) {
		t.Errorf("after the first call:\n got %q\nwant %q", got, want)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := v.(Ping).Ping(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ping on a canceled ctx = %v", err)
	}
	want = append(want, "component.errors.Ping.Ping")
	slices.Sort(want)
	if got := names(); !slices.Equal(got, want) {
		t.Errorf("after the first error:\n got %q\nwant %q", got, want)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "component.calls.Ping.Ping" && s.Value != 2 {
			t.Errorf("%s = %v, want 2", s.Name, s.Value)
		}
		if s.Name == "component.errors.Ping.Ping" && s.Value != 1 {
			t.Errorf("%s = %v, want 1", s.Name, s.Value)
		}
	}
}

// TestHandlesBindConcurrently makes a stub's first calls from many
// goroutines at once: every call must be counted once, in the metrics and
// in the call graph, whichever goroutine's handle won the binding.
func TestHandlesBindConcurrently(t *testing.T) {
	reg := metrics.NewRegistry()
	graph := callgraph.NewCollector()
	rt := NewRuntime(Options{Fill: fillWithDep, Metrics: reg, Graph: graph})
	ctx := context.Background()
	v, err := rt.Get(ctx, reflect.TypeOf((*Ping)(nil)).Elem())
	if err != nil {
		t.Fatal(err)
	}
	const callers, calls = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if _, err := v.(Ping).Ping(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("component.calls.Ping.Ping").Value(); got != callers*calls {
		t.Errorf("component.calls.Ping.Ping = %d, want %d", got, callers*calls)
	}
	for _, e := range graph.Edges() {
		if e.Calls != callers*calls {
			t.Errorf("edge %s→%s.%s has %d calls, want %d", e.Caller, e.Callee, e.Method, e.Calls, callers*calls)
		}
	}
}

// Three components calling in a chain, HopA → HopB → HopC, each
// recording the span context it was called with.

type HopA interface {
	A(ctx context.Context) (string, error)
}

type HopB interface {
	B(ctx context.Context) (string, error)
}

type HopC interface {
	C(ctx context.Context) (string, error)
}

var (
	hopMu   sync.Mutex
	hopSeen = map[string]tracing.SpanContext{}
)

func sawHop(ctx context.Context, hop string) {
	sc, _ := tracing.FromContext(ctx)
	hopMu.Lock()
	hopSeen[hop] = sc
	hopMu.Unlock()
}

type hopAImpl struct{ next HopB }
type hopBImpl struct{ next HopC }
type hopCImpl struct{}

func (h *hopAImpl) A(ctx context.Context) (string, error) {
	sawHop(ctx, "A")
	return h.next.B(ctx)
}

func (h *hopBImpl) B(ctx context.Context) (string, error) {
	sawHop(ctx, "B")
	return h.next.C(ctx)
}

func (h *hopCImpl) C(ctx context.Context) (string, error) {
	sawHop(ctx, "C")
	return "C", nil
}

// hopStub is the client stub of every hop component.
type hopStub struct {
	conn      codegen.Conn
	component string
	m         *codegen.MethodSpec
}

func (s hopStub) call(ctx context.Context) (string, error) {
	var res pingRes
	if err := s.conn.Invoke(ctx, s.component, s.m, &pingArgs{}, &res, 0, false); err != nil {
		return "", err
	}
	return res.R0, codegen.WireToError(res.Err, res.HasErr)
}

func (s hopStub) A(ctx context.Context) (string, error) { return s.call(ctx) }
func (s hopStub) B(ctx context.Context) (string, error) { return s.call(ctx) }
func (s hopStub) C(ctx context.Context) (string, error) { return s.call(ctx) }

func init() {
	register := func(name string, iface, impl reflect.Type, method string, do func(ctx context.Context, impl any) (string, error)) {
		spec := &codegen.MethodSpec{
			Name:    method,
			NewArgs: func() codegen.Message { return &pingArgs{} },
			NewRes:  func() codegen.Message { return &pingRes{} },
			Do: func(ctx context.Context, impl, args, res any) {
				r := res.(*pingRes)
				var err error
				r.R0, err = do(ctx, impl)
				r.Err, r.HasErr = codegen.ErrorToWire(err)
			},
		}
		codegen.Register(codegen.Registration{
			Name:    name,
			Iface:   iface,
			Impl:    impl,
			Methods: []*codegen.MethodSpec{spec},
			ClientStub: func(conn codegen.Conn) any {
				return hopStub{conn: conn, component: name, m: spec}
			},
		})
	}
	register("core_test/HopA", reflect.TypeOf((*HopA)(nil)).Elem(), reflect.TypeOf(hopAImpl{}), "A",
		func(ctx context.Context, impl any) (string, error) { return impl.(HopA).A(ctx) })
	register("core_test/HopB", reflect.TypeOf((*HopB)(nil)).Elem(), reflect.TypeOf(hopBImpl{}), "B",
		func(ctx context.Context, impl any) (string, error) { return impl.(HopB).B(ctx) })
	register("core_test/HopC", reflect.TypeOf((*HopC)(nil)).Elem(), reflect.TypeOf(hopCImpl{}), "C",
		func(ctx context.Context, impl any) (string, error) { return impl.(HopC).C(ctx) })
}

func fillHops(impl any, name string, resolve func(reflect.Type) (any, error)) error {
	var err error
	var dep any
	switch h := impl.(type) {
	case *hopAImpl:
		if dep, err = resolve(reflect.TypeOf((*HopB)(nil)).Elem()); err == nil {
			h.next = dep.(HopB)
		}
	case *hopBImpl:
		if dep, err = resolve(reflect.TypeOf((*HopC)(nil)).Elem()); err == nil {
			h.next = dep.(HopC)
		}
	}
	return err
}

// runHops deploys the hop chain over two runtimes, HopA in front and HopB
// with HopC behind a real data-plane server, so one call to HopA runs
// local → remote → local. The runtimes' tracers sample frontFraction and
// backFraction of the traces they root. It returns the span context each
// hop saw and the spans each tracer recorded.
func runHops(t *testing.T, frontFraction, backFraction float64) (seen map[string]tracing.SpanContext, front, back []tracing.Span) {
	t.Helper()
	ctx := context.Background()
	frontTracer := tracing.NewRecorder(100, frontFraction)
	backTracer := tracing.NewRecorder(100, backFraction)

	backRT := NewRuntime(Options{
		Hosted:  func(name string) bool { return name == "core_test/HopB" || name == "core_test/HopC" },
		Fill:    fillHops,
		Tracer:  backTracer,
		Metrics: metrics.NewRegistry(),
	})
	srv := rpc.NewServer()
	if err := HostComponents(ctx, backRT, srv, []string{"core_test/HopB"}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var conns []*DataPlaneConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	frontRT := NewRuntime(Options{
		Hosted: func(name string) bool { return name != "core_test/HopB" },
		RemoteConn: func(reg *codegen.Registration) (codegen.Conn, error) {
			c := NewDataPlaneConn(reg.Name, ConnOptions{DisableHedging: true})
			c.UpdateRouting(1, []string{addr}, nil)
			conns = append(conns, c)
			return c, nil
		},
		Fill:    fillHops,
		Tracer:  frontTracer,
		Metrics: metrics.NewRegistry(),
	})
	v, err := frontRT.Get(ctx, reflect.TypeOf((*HopA)(nil)).Elem())
	if err != nil {
		t.Fatal(err)
	}

	hopMu.Lock()
	hopSeen = map[string]tracing.SpanContext{}
	hopMu.Unlock()
	if out, err := v.(HopA).A(ctx); err != nil || out != "C" {
		t.Fatalf("A() = %q, %v", out, err)
	}
	hopMu.Lock()
	seen = hopSeen
	hopMu.Unlock()
	return seen, frontTracer.Drain(), backTracer.Drain()
}

// TestUnsampledTraceStaysUnsampledAcrossHops: the root's decision not to
// sample holds on every hop, local → remote → local, even where the
// downstream process samples every trace it roots itself. No process
// records a span, so no partial trace appears.
func TestUnsampledTraceStaysUnsampledAcrossHops(t *testing.T) {
	seen, front, back := runHops(t, 0, 1)
	root := seen["A"]
	if !root.Valid() || root.Sampled {
		t.Fatalf("root span context %+v, want a valid unsampled trace", root)
	}
	for _, hop := range []string{"B", "C"} {
		if sc := seen[hop]; sc.Trace != root.Trace || sc.Sampled {
			t.Errorf("hop %s saw %+v, want trace %d unsampled", hop, sc, root.Trace)
		}
	}
	if len(front)+len(back) != 0 {
		t.Errorf("unsampled trace recorded spans: front %+v, back %+v", front, back)
	}
}

// TestSampledTraceSpansAcrossHops is the sampled counterpart: every call
// of the chain records a span of the root's trace with its own span id,
// parented on its caller's span, wherever the call ran.
func TestSampledTraceSpansAcrossHops(t *testing.T) {
	seen, front, back := runHops(t, 1, 0)
	spans := append(front, back...)
	byMethod := map[string]tracing.Span{}
	ids := map[uint64]bool{}
	for _, s := range spans {
		byMethod[s.Method] = s
		ids[s.ID] = true
		if s.Trace != uint64(seen["A"].Trace) {
			t.Errorf("span %s.%s in trace %d, want %d", s.Component, s.Method, s.Trace, seen["A"].Trace)
		}
	}
	if len(spans) != 3 || len(ids) != 3 {
		t.Fatalf("spans = %+v, want 3 with distinct ids", spans)
	}
	a, b, c := byMethod["A"], byMethod["B"], byMethod["C"]
	if a.Parent != 0 || b.Parent != a.ID || c.Parent != b.ID {
		t.Errorf("parent chain: A %d←0, B %d←%d, C %d←%d; want B←A, C←B", a.ID, b.ID, b.Parent, c.ID, c.Parent)
	}
	if !b.Remote || a.Remote || c.Remote {
		t.Errorf("remote flags A %v B %v C %v, want only B remote", a.Remote, b.Remote, c.Remote)
	}
	for _, hop := range []string{"A", "B", "C"} {
		if !seen[hop].Sampled {
			t.Errorf("hop %s saw %+v, want sampled", hop, seen[hop])
		}
	}
	if !strings.HasSuffix(c.Caller, "HopB") {
		t.Errorf("C's caller = %q, want HopB", c.Caller)
	}
}
