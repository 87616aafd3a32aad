package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/tracing"
)

// Two mutually-referencing components to exercise dependency handling.

type Ping interface {
	Ping(ctx context.Context) (string, error)
}

type Pong interface {
	Pong(ctx context.Context) (string, error)
}

var (
	pingInits atomic.Int32
	pongShuts atomic.Int32
)

type pingImpl struct {
	pong Pong // filled by the test fill function
}

func (p *pingImpl) Init(context.Context) error {
	pingInits.Add(1)
	return nil
}

func (p *pingImpl) Ping(ctx context.Context) (string, error) {
	if p.pong != nil {
		s, err := p.pong.Pong(ctx)
		return "ping-" + s, err
	}
	return "ping", nil
}

type pongImpl struct {
	ping Ping // set only in the cycle test
}

func (p *pongImpl) Pong(context.Context) (string, error) { return "pong", nil }
func (p *pongImpl) Shutdown(context.Context) error {
	pongShuts.Add(1)
	return nil
}

type pingStub struct {
	conn codegen.Conn
	m    *codegen.MethodSpec
}

type pingArgs struct{}
type pingRes struct {
	R0     string
	Err    string
	HasErr bool
}

func (*pingArgs) WeaverMarshal(*codec.Encoder)   {}
func (*pingArgs) WeaverUnmarshal(*codec.Decoder) {}

func (x *pingRes) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

func (x *pingRes) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

func (s pingStub) Ping(ctx context.Context) (string, error) {
	var res pingRes
	if err := s.conn.Invoke(ctx, "core_test/Ping", s.m, &pingArgs{}, &res, 0, false); err != nil {
		return "", err
	}
	return res.R0, codegen.WireToError(res.Err, res.HasErr)
}

type pongStub struct {
	conn codegen.Conn
	m    *codegen.MethodSpec
}

func (s pongStub) Pong(ctx context.Context) (string, error) {
	var res pingRes
	if err := s.conn.Invoke(ctx, "core_test/Pong", s.m, &pingArgs{}, &res, 0, false); err != nil {
		return "", err
	}
	return res.R0, codegen.WireToError(res.Err, res.HasErr)
}

func init() {
	pingSpec := &codegen.MethodSpec{
		Name:    "Ping",
		NewArgs: func() codegen.Message { return &pingArgs{} },
		NewRes:  func() codegen.Message { return &pingRes{} },
		Do: func(ctx context.Context, impl, args, res any) {
			r := res.(*pingRes)
			var err error
			r.R0, err = impl.(Ping).Ping(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	codegen.Register(codegen.Registration{
		Name:    "core_test/Ping",
		Iface:   reflect.TypeOf((*Ping)(nil)).Elem(),
		Impl:    reflect.TypeOf(pingImpl{}),
		Methods: []*codegen.MethodSpec{pingSpec},
		ClientStub: func(conn codegen.Conn) any {
			return pingStub{conn: conn, m: pingSpec}
		},
	})

	pongSpec := &codegen.MethodSpec{
		Name:    "Pong",
		NewArgs: func() codegen.Message { return &pingArgs{} },
		NewRes:  func() codegen.Message { return &pingRes{} },
		Do: func(ctx context.Context, impl, args, res any) {
			r := res.(*pingRes)
			var err error
			r.R0, err = impl.(Pong).Pong(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	codegen.Register(codegen.Registration{
		Name:    "core_test/Pong",
		Iface:   reflect.TypeOf((*Pong)(nil)).Elem(),
		Impl:    reflect.TypeOf(pongImpl{}),
		Methods: []*codegen.MethodSpec{pongSpec},
		ClientStub: func(conn codegen.Conn) any {
			return pongStub{conn: conn, m: pongSpec}
		},
	})
}

// fillWithDep injects Pong into pingImpl via resolve.
func fillWithDep(impl any, name string, resolve func(reflect.Type) (any, error)) error {
	if p, ok := impl.(*pingImpl); ok {
		dep, err := resolve(reflect.TypeOf((*Pong)(nil)).Elem())
		if err != nil {
			return err
		}
		p.pong = dep.(Pong)
	}
	return nil
}

func TestLocalResolutionAndInit(t *testing.T) {
	before := pingInits.Load()
	rt := NewRuntime(Options{Fill: fillWithDep})
	ctx := context.Background()
	v, err := rt.Get(ctx, reflect.TypeOf((*Ping)(nil)).Elem())
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.(Ping).Ping(ctx)
	if err != nil || got != "ping-pong" {
		t.Errorf("Ping = %q, %v", got, err)
	}
	if pingInits.Load() != before+1 {
		t.Errorf("Init ran %d times", pingInits.Load()-before)
	}
	// Second Get: no re-init.
	if _, err := rt.Get(ctx, reflect.TypeOf((*Ping)(nil)).Elem()); err != nil {
		t.Fatal(err)
	}
	if pingInits.Load() != before+1 {
		t.Error("component re-initialized")
	}
}

func TestShutdownPropagates(t *testing.T) {
	before := pongShuts.Load()
	rt := NewRuntime(Options{Fill: fillWithDep})
	ctx := context.Background()
	if _, err := rt.Get(ctx, reflect.TypeOf((*Pong)(nil)).Elem()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if pongShuts.Load() != before+1 {
		t.Error("Shutdown not invoked")
	}
}

func TestUnknownInterface(t *testing.T) {
	rt := NewRuntime(Options{Fill: fillWithDep})
	type Unknown interface{ Nope() }
	_, err := rt.Get(context.Background(), reflect.TypeOf((*Unknown)(nil)).Elem())
	if err == nil {
		t.Error("unknown interface resolved")
	}
}

func TestRemoteWithoutConnErrors(t *testing.T) {
	rt := NewRuntime(Options{
		Fill:   fillWithDep,
		Hosted: func(string) bool { return false },
	})
	_, err := rt.Get(context.Background(), reflect.TypeOf((*Ping)(nil)).Elem())
	if err == nil || !strings.Contains(err.Error(), "RemoteConn") {
		t.Errorf("err = %v", err)
	}
}

func TestDependencyCycleDetected(t *testing.T) {
	// A fill that makes Ping depend on Pong and Pong depend on Ping.
	cyclicFill := func(impl any, name string, resolve func(reflect.Type) (any, error)) error {
		switch x := impl.(type) {
		case *pingImpl:
			dep, err := resolve(reflect.TypeOf((*Pong)(nil)).Elem())
			if err != nil {
				return err
			}
			x.pong = dep.(Pong)
		case *pongImpl:
			dep, err := resolve(reflect.TypeOf((*Ping)(nil)).Elem())
			if err != nil {
				return err
			}
			x.ping = dep.(Ping)
		}
		return nil
	}
	rt := NewRuntime(Options{Fill: cyclicFill})
	_, err := rt.Get(context.Background(), reflect.TypeOf((*Ping)(nil)).Elem())
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v, want cycle detection", err)
	}
}

func TestCallGraphAndTracing(t *testing.T) {
	graph := callgraph.NewCollector()
	tracer := tracing.NewRecorder(1000, 1.0)
	rt := NewRuntime(Options{Fill: fillWithDep, Graph: graph, Tracer: tracer})
	ctx := context.Background()
	v, err := rt.Get(ctx, reflect.TypeOf((*Ping)(nil)).Elem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.(Ping).Ping(ctx); err != nil {
		t.Fatal(err)
	}

	edges := graph.Edges()
	var sawEntry, sawNested bool
	for _, e := range edges {
		if e.Caller == "" && e.Callee == "core_test/Ping" {
			sawEntry = true
		}
		if e.Caller == "core_test/Ping" && e.Callee == "core_test/Pong" {
			sawNested = true
		}
	}
	if !sawEntry || !sawNested {
		t.Errorf("edges = %+v", edges)
	}

	spans := tracer.Drain()
	if len(spans) < 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	// All spans of the request share one trace, and the nested span's
	// parent chain reaches the root.
	trace := spans[0].Trace
	for _, s := range spans {
		if s.Trace != trace {
			t.Errorf("span %s has trace %d, want %d", s.Component, s.Trace, trace)
		}
	}
}

func TestShortName(t *testing.T) {
	if got := ShortName("a/b/C"); got != "C" {
		t.Errorf("ShortName = %q", got)
	}
	if got := ShortName("C"); got != "C" {
		t.Errorf("ShortName = %q", got)
	}
}

var _ = fmt.Sprintf
