package loadgen

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
)

// rpcTarget drives a single rpc server directly, so the generator can
// overload one replica's admission control without a full deployment.
type rpcTarget struct {
	client *rpc.Client
	method rpc.MethodID
}

func (t *rpcTarget) Do(ctx context.Context, op Op, user, currency, product string) error {
	cctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	resp, err := t.client.CallFramed(cctx, t.method, make([]byte, rpc.PayloadHeadroom), rpc.CallOptions{})
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

func TestOverloadShedsFastAndBoundsAcceptedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	startGoroutines := runtime.NumGoroutine()

	// Capacity: 2 slots x (1/5ms) = ~400 req/s plus a 2-deep queue. The
	// generator offers ~3x that.
	srv := rpc.NewServerWithOptions(rpc.ServerOptions{MaxInflight: 2, MaxQueue: 2})
	srv.RegisterFramed("ovl.Work", func(ctx context.Context, args []byte) ([]byte, rpc.BufOwner, error) {
		timer := time.NewTimer(5 * time.Millisecond)
		defer timer.Stop()
		select {
		case <-timer.C:
			return append(make([]byte, rpc.ResponseHeadroom), "done"...), nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := rpc.NewClient(addr, rpc.ClientOptions{NumConns: 2})

	shedBefore := metrics.Default.Counter("rpc.server.shed").Value()
	rep := Run(context.Background(), &rpcTarget{client: client, method: rpc.MethodKey("ovl.Work")}, Options{
		Rate:        1200,
		Duration:    1500 * time.Millisecond,
		Warmup:      150 * time.Millisecond,
		MaxInflight: 512,
		Seed:        3,
	})
	sheds := metrics.Default.Counter("rpc.server.shed").Value() - shedBefore
	t.Logf("overload: %s sheds=%d", rep, sheds)

	if sheds == 0 {
		t.Error("server shed nothing at 3x capacity")
	}
	if rep.Errors == 0 {
		t.Error("no request observed an overload error at 3x capacity")
	}
	if rep.OK == 0 {
		t.Fatal("no request succeeded; admission control shed everything")
	}
	// Accepted requests never sit in an unbounded queue: the worst case is
	// the 2-deep queue behind 2 slots of 5ms work. Allow a wide margin for
	// scheduler noise, but far below the 250ms client deadline.
	if p99 := rep.Quantile(0.99); p99 > 150*time.Millisecond {
		t.Errorf("accepted p99 = %v; queueing is not bounded", p99)
	}

	client.Close()
	srv.Close()

	// No goroutine leaks: everything the run spawned must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= startGoroutines+8 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: started with %d, still %d after shutdown",
		startGoroutines, runtime.NumGoroutine())
}
