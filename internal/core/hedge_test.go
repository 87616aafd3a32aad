package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/rpc"
)

// hedgePair starts two replicas of component whose M handlers run serve,
// and a conn that hedges every call from the first replica to the second
// after 5ms. Each client keeps one stripe, so the goroutine count after a
// warm-up call to each replica is the steady baseline.
func hedgePair(t *testing.T, component string, serve func(ctx context.Context, replica int) error) (*DataPlaneConn, [2]string) {
	t.Helper()
	var addrs [2]string
	for i := range addrs {
		srv := rpc.NewServer()
		srv.RegisterFramed(component+".M", func(ctx context.Context, _ []byte) ([]byte, rpc.BufOwner, error) {
			if err := serve(ctx, i); err != nil {
				return nil, nil, err
			}
			return make([]byte, rpc.ResponseHeadroom), nil, nil
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	// Warm-up picks: one per replica. Then every call's primary goes to
	// replica 0 and its hedge to replica 1.
	bal := &scriptedBalancer{seq: []string{addrs[0], addrs[1], addrs[0], addrs[1]}}
	conn := NewDataPlaneConnWith(component, bal, ConnOptions{
		HedgeAfter: 5 * time.Millisecond,
		Client:     rpc.ClientOptions{NumConns: 1},
	})
	t.Cleanup(conn.Close)
	conn.UpdateRouting(1, addrs[:], nil)
	return conn, addrs
}

// quietGoroutines returns the goroutine count once helpers that outlive a
// call by a tick (the hedge wheel's runner) have exited.
func quietGoroutines() int {
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// settledGoroutines waits for the goroutine count to drop to at most
// want, returning the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// waitCounter waits up to 5s for c to reach want.
func waitCounter(c *metrics.Counter, want uint64) {
	for deadline := time.Now().Add(5 * time.Second); c.Value() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// TestHedgeCancelAbandonsBothLegs cancels the caller while both legs of a
// hedge race are outstanding. The race runs on the caller's goroutine, so
// cancellation must abandon both legs itself: each server's handler sees
// its context canceled by a cancel frame, no waiter stays registered on
// either client, and no goroutine outlives the call.
func TestHedgeCancelAbandonsBothLegs(t *testing.T) {
	const component = "hedge_cancel/C"
	var warm atomic.Bool
	warm.Store(true)
	started := make(chan int, 2)
	canceled := make(chan int, 2)
	conn, addrs := hedgePair(t, component, func(ctx context.Context, replica int) error {
		if warm.Load() {
			return nil
		}
		started <- replica
		<-ctx.Done()
		canceled <- replica
		return ctx.Err()
	})
	spec := emptySpec(false)
	var args, res emptyMsg
	for range addrs {
		// Warm-up: no hedge fires, since answers are immediate.
		if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	baseline := quietGoroutines()
	warm.Store(false)
	late := metrics.Default.Counter("rpc.client.late_responses")
	before := late.Value()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- conn.Invoke(ctx, component, spec, &args, &res, 0, false) }()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 legs reached a server", i)
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke = %v, want context.Canceled", err)
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case r := <-canceled:
			seen[r] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("handler contexts canceled on replicas %v; want both", seen)
		}
	}
	if launched, _ := conn.HedgeStats(); launched != 1 {
		t.Errorf("hedges launched = %d, want 1", launched)
	}
	for _, addr := range addrs {
		if n := conn.lookup(addr).client.PendingCalls(); n != 0 {
			t.Errorf("client for %s has %d pending calls after cancellation", addr, n)
		}
	}
	// Both canceled handlers still reply; the read loops release the
	// replies nobody waits for.
	waitCounter(late, before+2)
	if got := late.Value() - before; got != 2 {
		t.Errorf("%d late replies released, want the 2 abandoned legs'", got)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines after the canceled race, baseline %d", n, baseline)
	}
}

// TestHedgeLoserLateResponseReleased lets a hedge win, then lets the
// abandoned primary answer. Its response must reach the client's read
// loop and be released there — no waiter left registered, and the next
// call on the same connection gets its own answer.
func TestHedgeLoserLateResponseReleased(t *testing.T) {
	const component = "hedge_late/C"
	var warm atomic.Bool
	warm.Store(true)
	release := make(chan struct{})
	conn, addrs := hedgePair(t, component, func(ctx context.Context, replica int) error {
		if !warm.Load() && replica == 0 {
			<-release // ignores the cancel frame: answers late regardless
		}
		return nil
	})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // runs before the servers close
	spec := emptySpec(false)
	var args, res emptyMsg
	for range addrs {
		if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	baseline := quietGoroutines()
	warm.Store(false)

	late := metrics.Default.Counter("rpc.client.late_responses")
	before := late.Value()
	if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, won := conn.HedgeStats(); won != 1 {
		t.Fatalf("hedge wins = %d, want 1", won)
	}
	releaseOnce()
	waitCounter(late, before+1)
	if late.Value() != before+1 {
		t.Fatal("the abandoned primary's late response never reached the read loop")
	}
	primary := conn.lookup(addrs[0]).client
	if n := primary.PendingCalls(); n != 0 {
		t.Errorf("primary client has %d pending calls after its late answer", n)
	}
	// The balancer now repeats replica 1, so reach replica 0 directly: the
	// connection that carried the late answer must serve a fresh call.
	framed := make([]byte, rpc.PayloadHeadroom)
	resp, err := primary.CallFramed(context.Background(), rpc.MethodKey(component+".M"), framed, rpc.CallOptions{})
	if err != nil {
		t.Fatalf("call on the primary's connection after the late answer: %v", err)
	}
	resp.Release()
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines after the race, baseline %d", n, baseline)
	}
}

// TestHedgeLegAvoidsPrimary races 8 callers through one conn to two
// replicas, one of which stalls every request for 100 ms, with hedges
// firing after 2 ms. A call whose primary is the stalled replica must
// hedge to the other one, however the callers interleave on the
// balancer's shared round-robin counter, so no call waits out the stall.
func TestHedgeLegAvoidsPrimary(t *testing.T) {
	const (
		component = "hedge_pick/C"
		stall     = 100 * time.Millisecond
		callers   = 8
		calls     = 25
	)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := rpc.NewServer()
		srv.RegisterFramed(component+".M", func(ctx context.Context, _ []byte) ([]byte, rpc.BufOwner, error) {
			if i == 0 {
				select {
				case <-time.After(stall):
				case <-ctx.Done(): // a hedge loser's cancel frame
				}
			}
			return make([]byte, rpc.ResponseHeadroom), nil, nil
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}
	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(), ConnOptions{HedgeAfter: 2 * time.Millisecond})
	t.Cleanup(conn.Close)
	conn.UpdateRouting(1, addrs, nil)

	spec := emptySpec(false)
	var slow atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var args, res emptyMsg
				start := time.Now()
				if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
					t.Error(err)
					return
				}
				if time.Since(start) >= stall {
					slow.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	launched, won := conn.HedgeStats()
	t.Logf("hedges launched %d, won %d", launched, won)
	if n := slow.Load(); n != 0 {
		t.Errorf("%d of %d calls waited out the stalled replica instead of hedging", n, callers*calls)
	}
}

// A pinnedBalancer picks addr, which the test sets between calls on the
// calling goroutine.
type pinnedBalancer struct{ addr string }

func (b *pinnedBalancer) Pick(uint64, bool) (string, error)    { return b.addr, nil }
func (b *pinnedBalancer) Update([]string, *routing.Assignment) {}

// TestSoleReplicaArmsNoHedge drives an adaptively hedging conn on a fake
// clock through pushes of one, two and again one replica. With one
// replica there is nothing to hedge to, so a call arms no alarm and the
// wheel's runner never starts; the latency ring still fills, so the
// call after a push adds a (stalled) second replica hedges at once; and
// a push back to one replica stops the arming again. Each handler
// records how many alarms the conn's wheel holds while it serves.
func TestSoleReplicaArmsNoHedge(t *testing.T) {
	const component = "sole_replica/C"
	var conn atomic.Pointer[DataPlaneConn]
	var armed atomic.Int64 // most wheel entries a handler saw
	record := func() {
		if n := int64(conn.Load().wheel.Len()); n > armed.Load() {
			armed.Store(n)
		}
	}
	fast := rpc.NewServer()
	registerEmpty(fast, component+".M", record)
	addrA, err := fast.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fast.Close() })
	stalled := rpc.NewServer()
	release := make(chan struct{})
	stalled.RegisterFramed(component+".M", func(ctx context.Context, _ []byte) ([]byte, rpc.BufOwner, error) {
		record()
		select {
		case <-ctx.Done(): // the hedge won and abandoned this leg
		case <-release:
		}
		return make([]byte, rpc.ResponseHeadroom), nil, nil
	})
	addrB, err := stalled.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { releaseOnce(); stalled.Close() })

	clk := clock.NewFake()
	bal := &pinnedBalancer{addr: addrA}
	c := NewDataPlaneConnWith(component, bal, ConnOptions{Clock: clk})
	conn.Store(c)
	t.Cleanup(c.Close)
	spec := emptySpec(false)
	invoke := func() error {
		var args, res emptyMsg
		return c.Invoke(context.Background(), component, spec, &args, &res, 0, false)
	}

	c.UpdateRouting(1, []string{addrA}, nil)
	for i := 0; i < 2*hedgeMinSamples; i++ {
		if err := invoke(); err != nil {
			t.Fatal(err)
		}
	}
	if c.hedgeDelay() <= 0 {
		t.Fatal("adaptive hedge delay still cold after the warm-up calls")
	}
	if n := armed.Load(); n != 0 {
		t.Errorf("one-replica calls armed %d hedge alarms", n)
	}
	if n := clk.Waiting(); n != 0 {
		t.Errorf("%d sleepers on the conn's clock after one-replica calls; the wheel's runner started", n)
	}

	// A second replica, stalled, takes the next call's primary: the hedge
	// must fire on the delay the one-replica calls warmed.
	c.UpdateRouting(2, []string{addrA, addrB}, nil)
	bal.addr = addrB
	errc := make(chan error, 1)
	go func() { errc <- invoke() }()
	deadline := time.Now().Add(5 * time.Second)
	for decided := false; !decided; {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			decided = true
		default:
			if time.Now().After(deadline) {
				releaseOnce()
				t.Fatalf("call on the stalled replica did not hedge: %v", <-errc)
			}
			clk.Advance(time.Millisecond)
			time.Sleep(100 * time.Microsecond)
		}
	}
	if launched, won := c.HedgeStats(); launched != 1 || won != 1 {
		t.Errorf("after the push to two replicas: %d hedges launched, %d won; want 1, 1", launched, won)
	}

	// Back to one replica: calls arm nothing again.
	c.UpdateRouting(3, []string{addrA}, nil)
	bal.addr = addrA
	armed.Store(0)
	for i := 0; i < 20; i++ {
		if err := invoke(); err != nil {
			t.Fatal(err)
		}
	}
	if n := armed.Load(); n != 0 {
		t.Errorf("after the push back to one replica, calls armed %d hedge alarms", n)
	}
	if launched, _ := c.HedgeStats(); launched != 1 {
		t.Errorf("hedges launched = %d after the push back to one replica, want 1", launched)
	}
}
