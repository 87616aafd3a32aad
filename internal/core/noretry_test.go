package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/routing"
	"repro/internal/rpc"
)

// scriptedBalancer returns addresses in a fixed sequence, then repeats the
// last one.
type scriptedBalancer struct {
	seq []string
	i   atomic.Int64
}

func (b *scriptedBalancer) Pick(uint64, bool) (string, error) {
	i := int(b.i.Add(1)) - 1
	if i >= len(b.seq) {
		i = len(b.seq) - 1
	}
	return b.seq[i], nil
}

func (b *scriptedBalancer) Update([]string, *routing.Assignment) {}

func TestTransportRetryPolicy(t *testing.T) {
	// A live server and a dead address.
	srv := rpc.NewServer()
	var calls atomic.Int64
	spec := &codegen.MethodSpec{
		Name:    "M",
		NewArgs: func() codegen.Message { return &emptyMsg{} },
		NewRes:  func() codegen.Message { return &emptyMsg{} },
		Do:      func(context.Context, any, any, any) {},
	}
	registerEmpty(srv, "retry_test/C.M", func() { calls.Add(1) })
	live, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dead := "127.0.0.1:1" // nothing listens here

	t.Run("RetriableMethodFailsOver", func(t *testing.T) {
		conn := NewDataPlaneConnWith("retry_test/C", &scriptedBalancer{seq: []string{dead, live}}, ConnOptions{})
		defer conn.Close()
		conn.UpdateRouting(1, []string{dead, live}, nil)
		var args, res emptyMsg
		if err := conn.Invoke(context.Background(), "retry_test/C", spec, &args, &res, 0, false); err != nil {
			t.Fatalf("retriable method failed despite a live replica: %v", err)
		}
		if calls.Load() == 0 {
			t.Fatal("server never reached")
		}
	})

	t.Run("NoRetryMethodFailsFast", func(t *testing.T) {
		before := calls.Load()
		noRetrySpec := &codegen.MethodSpec{
			Name:    "M",
			NewArgs: spec.NewArgs,
			NewRes:  spec.NewRes,
			Do:      spec.Do,
			NoRetry: true,
		}
		conn := NewDataPlaneConnWith("retry_test/C", &scriptedBalancer{seq: []string{dead, live}}, ConnOptions{})
		defer conn.Close()
		conn.UpdateRouting(1, []string{dead, live}, nil)
		var args, res emptyMsg
		err := conn.Invoke(context.Background(), "retry_test/C", noRetrySpec, &args, &res, 0, false)
		if err == nil {
			t.Fatal("noretry method was retried to success; at-most-once violated")
		}
		if calls.Load() != before {
			t.Fatalf("noretry method reached the server %d extra times", calls.Load()-before)
		}
	})
}
