package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/testpkg"
	"repro/internal/tracing"
	"repro/weaver"
)

// localEcho returns a generated Echo stub whose calls dispatch to a local
// implementation through a runtime with every kind of bookkeeping on: a
// call graph, a tracer that samples every trace it roots, and a private
// metrics registry.
func localEcho(tb testing.TB) testpkg.Echo {
	tb.Helper()
	logger := logging.New(logging.Options{Component: "localcall", Min: logging.LevelError})
	rt := core.NewRuntime(core.Options{
		Fill: func(impl any, name string, resolve func(reflect.Type) (any, error)) error {
			return weaver.FillComponent(impl, name, logger, resolve, nil)
		},
		Logger:  logger,
		Graph:   callgraph.NewCollector(),
		Tracer:  tracing.NewRecorder(1000, 1.0),
		Metrics: metrics.NewRegistry(),
	})
	v, err := rt.Get(context.Background(), reflect.TypeOf((*testpkg.Echo)(nil)).Elem())
	if err != nil {
		tb.Fatal(err)
	}
	return v.(testpkg.Echo)
}

// unsampledCtx is a context inside a trace whose root decided not to
// sample it, as a request arriving from an unsampled caller carries.
func unsampledCtx() context.Context {
	return tracing.ContextWith(context.Background(), tracing.SpanContext{Trace: 1, Span: 2})
}

// TestAllocsLocalCall gates the standing cost of a co-located call: a
// generated stub into a local implementation, inside an unsampled trace,
// with metrics, call graph and tracer configured. The stub's args and
// results are pooled, the bookkeeping goes through handles bound on the
// first call, and an unsampled call passes its ctx through unwrapped, so
// the runtime allocates nothing per call. Wired into `make allocs`.
func TestAllocsLocalCall(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	echo := localEcho(t)
	ctx := unsampledCtx()
	call := func() {
		if _, err := echo.Echo(ctx, "hello"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // bind the handles and fill the pools
	}
	allocs := testing.AllocsPerRun(1000, call)
	t.Logf("allocs/op: %.1f", allocs)
	if allocs > 1 {
		t.Errorf("local call allocates %.1f/op, budget is 1", allocs)
	}
}

// BenchmarkLocalCall measures a co-located call through a generated stub
// with all bookkeeping on, from parallel callers. Nothing on the path takes
// a lock shared by the callers, so ns/op at -cpu 2 should not exceed the
// -cpu 1 figure (`make bench-json` records both in BENCH_rpc.json).
func BenchmarkLocalCall(b *testing.B) {
	echo := localEcho(b)
	ctx := unsampledCtx()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := echo.Echo(ctx, "hello"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
