package weaver

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/tracing"

	"reflect"

	"repro/internal/callgraph"
)

// An App is a handle on an initialized application, from which component
// clients are obtained with Get.
type App struct {
	ctx      context.Context
	runtime  *core.Runtime
	logger   *logging.Logger
	graph    *callgraph.Collector
	tracer   *tracing.Recorder
	shutdown func(context.Context) error
}

// Init initializes the application (paper Figure 2). The deployment
// environment is discovered from the process environment:
//
//   - Default: single-process deployment. Every component is hosted in
//     this process, and all component method calls are local procedure
//     calls.
//   - WEAVER_PROCLET set: this process was spawned by a multiprocess
//     deployer (cmd/weaver) as a proclet. Init connects to the parent
//     envelope over the inherited pipe, hosts the components assigned by
//     the manager, and — unless this proclet hosts the "main" group —
//     blocks until shutdown.
//
// Application code is identical in all cases; that is the point.
func Init(ctx context.Context) (*App, error) {
	if os.Getenv("WEAVER_DESCRIBE") != "" {
		describeAndExit()
	}
	if os.Getenv("WEAVER_PROCLET") != "" {
		return initProclet(ctx)
	}
	return initSingle(ctx)
}

// initSingle builds a single-process deployment: all components co-located,
// exactly as in the paper's §6.1 co-location experiment.
func initSingle(ctx context.Context) (*App, error) {
	logger := logging.New(logging.Options{Component: "weaver", Replica: "single", Min: logLevel()})
	graph := callgraph.NewCollector()
	tracer := tracing.NewRecorder(10000, traceFraction())

	app := &App{ctx: ctx, logger: logger, graph: graph, tracer: tracer}
	rt := core.NewRuntime(core.Options{
		Hosted: nil, // host everything
		Fill: func(impl any, name string, resolve func(reflect.Type) (any, error)) error {
			return FillComponent(impl, name, logger.With(core.ShortName(name)), resolve, defaultListen)
		},
		Logger:  logger,
		Graph:   graph,
		Tracer:  tracer,
		Metrics: metrics.Default,
	})
	app.runtime = rt
	app.shutdown = rt.Shutdown
	return app, nil
}

// logLevel returns the minimum logged severity, from WEAVER_LOG
// ("debug", "info", "warn", "error"; default "info").
func logLevel() logging.Level {
	switch os.Getenv("WEAVER_LOG") {
	case "debug":
		return logging.LevelDebug
	case "warn":
		return logging.LevelWarn
	case "error":
		return logging.LevelError
	default:
		return logging.LevelInfo
	}
}

// traceFraction returns the sampled fraction of traces, from
// WEAVER_TRACE_FRACTION (default: 0.01).
func traceFraction() float64 {
	if v := os.Getenv("WEAVER_TRACE_FRACTION"); v != "" {
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err == nil && f >= 0 && f <= 1 {
			return f
		}
	}
	return 0.01
}

// Shutdown stops the application's components, invoking their Shutdown
// methods where defined.
func (a *App) Shutdown(ctx context.Context) error {
	if a.shutdown == nil {
		return nil
	}
	return a.shutdown(ctx)
}

// Logger returns the application-level logger.
func (a *App) Logger() *logging.Logger { return a.logger }

// CallGraph returns the live call-graph collector for this process. The
// multiprocess manager aggregates collectors across proclets; in a
// single-process deployment this collector sees every call. In proclet
// mode it returns nil: telemetry flows to the manager instead.
func (a *App) CallGraph() *callgraph.Collector { return a.graph }

// Traces returns the process-local trace recorder, or nil in proclet mode
// (spans ship to the manager).
func (a *App) Traces() *tracing.Recorder { return a.tracer }
