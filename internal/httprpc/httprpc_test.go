package httprpc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/routing"
)

// A minimal hand-registered component for transport testing.

type Adder interface {
	Add(ctx context.Context, a, b int) (int, error)
}

type adderImpl struct{}

func (adderImpl) Add(_ context.Context, a, b int) (int, error) {
	if a == 13 {
		return 0, errors.New("unlucky")
	}
	return a + b, nil
}

type addArgs struct {
	P0 int
	P1 int
}

type addRes struct {
	R0     int
	Err    string
	HasErr bool
}

// The JSON transport never calls these; they make the structs
// codegen.Messages.
func (*addArgs) WeaverMarshal(*codec.Encoder)   {}
func (*addArgs) WeaverUnmarshal(*codec.Decoder) {}
func (*addRes) WeaverMarshal(*codec.Encoder)    {}
func (*addRes) WeaverUnmarshal(*codec.Decoder)  {}

var addSpec = &codegen.MethodSpec{
	Name:    "Add",
	NewArgs: func() codegen.Message { return &addArgs{} },
	NewRes:  func() codegen.Message { return &addRes{} },
	Do: func(ctx context.Context, impl, args, res any) {
		a := args.(*addArgs)
		r := res.(*addRes)
		var err error
		r.R0, err = impl.(Adder).Add(ctx, a.P0, a.P1)
		r.Err, r.HasErr = codegen.ErrorToWire(err)
	},
}

var adderReg = &codegen.Registration{
	Name:    "httprpc_test/Adder",
	Iface:   reflect.TypeOf((*Adder)(nil)).Elem(),
	Impl:    reflect.TypeOf(struct{}{}),
	Methods: []*codegen.MethodSpec{addSpec},
}

func startServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	srv.Host(adderReg, adderImpl{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestInvokeRoundTrip(t *testing.T) {
	addr := startServer(t)
	conn := NewConn(adderReg.Name, routing.NewRoundRobin(addr))
	defer conn.Close()

	args := addArgs{P0: 2, P1: 3}
	var res addRes
	if err := conn.Invoke(context.Background(), adderReg.Name, addSpec, &args, &res, 0, false); err != nil {
		t.Fatal(err)
	}
	if res.R0 != 5 || res.HasErr {
		t.Errorf("res = %+v", res)
	}
}

func TestApplicationErrorCrossesJSON(t *testing.T) {
	addr := startServer(t)
	conn := NewConn(adderReg.Name, routing.NewRoundRobin(addr))
	defer conn.Close()
	args := addArgs{P0: 13}
	var res addRes
	if err := conn.Invoke(context.Background(), adderReg.Name, addSpec, &args, &res, 0, false); err != nil {
		t.Fatal(err)
	}
	if !res.HasErr || res.Err != "unlucky" {
		t.Errorf("res = %+v", res)
	}
}

func TestUnknownEndpoint404(t *testing.T) {
	addr := startServer(t)
	conn := NewConn("nope/Missing", routing.NewRoundRobin(addr))
	defer conn.Close()
	var res addRes
	err := conn.Invoke(context.Background(), "nope/Missing", addSpec, &addArgs{}, &res, 0, false)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v", err)
	}
}

func TestNoReplicas(t *testing.T) {
	conn := NewConn(adderReg.Name, routing.NewRoundRobin())
	defer conn.Close()
	var res addRes
	if err := conn.Invoke(context.Background(), adderReg.Name, addSpec, &addArgs{}, &res, 0, false); err == nil {
		t.Error("invoke with no replicas succeeded")
	}
}

func TestContextCancellation(t *testing.T) {
	addr := startServer(t)
	conn := NewConn(adderReg.Name, routing.NewRoundRobin(addr))
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res addRes
	if err := conn.Invoke(ctx, adderReg.Name, addSpec, &addArgs{}, &res, 0, false); err == nil {
		t.Error("canceled invoke succeeded")
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	srv := NewServer()
	srv.Host(adderReg, adderImpl{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	conn := NewConn(adderReg.Name, routing.NewRoundRobin(addr))
	defer conn.Close()
	var res addRes
	if err := conn.Invoke(context.Background(), adderReg.Name, addSpec, &addArgs{}, &res, 0, false); err == nil {
		t.Error("invoke after Close succeeded")
	}
}
