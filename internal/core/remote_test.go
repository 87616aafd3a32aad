package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// emptyMsg is the args and results struct of a method with no parameters
// and no results: it encodes to no bytes.
type emptyMsg struct{}

func (*emptyMsg) WeaverMarshal(*codec.Encoder)   {}
func (*emptyMsg) WeaverUnmarshal(*codec.Decoder) {}

// emptySpec returns a MethodSpec with empty args/results, the shape every
// remote-conn test here needs.
func emptySpec(noRetry bool) *codegen.MethodSpec {
	return &codegen.MethodSpec{
		Name:    "M",
		NewArgs: func() codegen.Message { return &emptyMsg{} },
		NewRes:  func() codegen.Message { return &emptyMsg{} },
		Do:      func(context.Context, any, any, any) {},
		NoRetry: noRetry,
	}
}

// registerEmpty installs a handler for name that runs do and answers with
// an empty result.
func registerEmpty(srv *rpc.Server, name string, do func()) {
	srv.RegisterFramed(name, func(context.Context, []byte) ([]byte, rpc.BufOwner, error) {
		do()
		return make([]byte, rpc.ResponseHeadroom), nil, nil
	})
}

// startCounting starts a server for component hosting method M that counts
// invocations, with the given admission options.
func startCounting(t testing.TB, component string, opts rpc.ServerOptions) (*rpc.Server, string, *atomic.Int64) {
	t.Helper()
	srv := rpc.NewServerWithOptions(opts)
	var calls atomic.Int64
	registerEmpty(srv, component+".M", func() { calls.Add(1) })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, &calls
}

// BenchmarkRemoteInvoke measures an empty idempotent Invoke over loopback
// with adaptive hedging on, to one replica, where a call arms no hedge
// alarm, and to two, where every call arms one once the delay is warm.
// `make bench-json` records both at -cpu 1,2 in BENCH_rpc.json.
func BenchmarkRemoteInvoke(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			const component = "bench_remote/C"
			addrs := make([]string, n)
			for i := range addrs {
				_, addrs[i], _ = startCounting(b, component, rpc.ServerOptions{})
			}
			conn := NewDataPlaneConn(component, ConnOptions{})
			defer conn.Close()
			conn.UpdateRouting(1, addrs, nil)
			spec := emptySpec(false)
			ctx := context.Background()
			var args, res emptyMsg
			for i := 0; i < 2*hedgeMinSamples; i++ {
				// Dial and warm the adaptive hedge delay.
				if err := conn.Invoke(ctx, component, spec, &args, &res, 0, false); err != nil {
					b.Fatal(err)
				}
			}
			before, _ := conn.HedgeStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Invoke(ctx, component, spec, &args, &res, 0, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			launched, _ := conn.HedgeStats()
			b.ReportMetric(float64(launched-before)/float64(b.N), "hedges/op")
		})
	}
}

func TestOverloadShedRetriesElsewhereForNoRetry(t *testing.T) {
	// A shed request never executed, so retrying it on another replica is
	// safe even under at-most-once semantics — and required, or a single
	// overloaded replica would fail calls a healthy one could serve.
	const component = "shed_test/C"
	srvA, addrA, callsA := startCounting(t, component, rpc.ServerOptions{MaxInflight: 1})
	_, addrB, callsB := startCounting(t, component, rpc.ServerOptions{})

	// Occupy A's only slot so it sheds everything else.
	block := make(chan struct{})
	started := make(chan struct{})
	registerEmpty(srvA, component+".Block", func() {
		close(started)
		<-block
	})
	defer close(block)
	blocker := rpc.NewClient(addrA, rpc.ClientOptions{})
	defer blocker.Close()
	go func() {
		resp, err := blocker.CallFramed(context.Background(), rpc.MethodKey(component+".Block"), make([]byte, rpc.PayloadHeadroom), rpc.CallOptions{})
		if err == nil {
			resp.Release()
		}
	}()
	<-started

	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true})
	defer conn.Close()
	conn.UpdateRouting(1, []string{addrA, addrB}, nil)
	conn.startAt(0) // the first attempt goes to the overloaded replica

	var args, res emptyMsg
	if err := conn.Invoke(context.Background(), component, emptySpec(true), &args, &res, 0, false); err != nil {
		t.Fatalf("noretry call failed despite healthy second replica: %v", err)
	}
	if got := callsA.Load(); got != 0 {
		t.Errorf("overloaded replica executed %d calls; shed requests must not execute", got)
	}
	if got := callsB.Load(); got != 1 {
		t.Errorf("healthy replica executed %d calls, want exactly 1 (at-most-once)", got)
	}
}

func TestRetriesPreferUntriedReplicas(t *testing.T) {
	const component = "untried_test/C"
	_, live, calls := startCounting(t, component, rpc.ServerOptions{})
	dead := "127.0.0.1:1" // nothing listens here

	// The push names the dead replica three times ahead of the live one,
	// so the rotation lands on it for every attempt in the budget, as a
	// rotation that concurrent callers advance can; each retry must still
	// get past the already-tried address to the live one.
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true})
	defer conn.Close()
	conn.UpdateRouting(1, []string{dead, dead, dead, live}, nil)
	conn.startAt(0)

	var args, res emptyMsg
	if err := conn.Invoke(context.Background(), component, emptySpec(false), &args, &res, 0, false); err != nil {
		t.Fatalf("call failed despite a live replica: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("live replica executed %d calls, want 1", got)
	}
}

func TestNoReplicaGraceIsFifteenSeconds(t *testing.T) {
	// A call to a component with no replica waits 15 s of the conn's clock
	// for a routing push, then fails. The fake clock moves only when the
	// test advances it.
	const component = "grace_test/C"
	clk := clock.NewFake()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()

	done := invokeAsync(conn, component)
	eventually(t, "the call to arm its grace timer", func() bool { return clk.Waiting() == 1 })
	clk.Advance(15*time.Second - time.Nanosecond)
	if got := clk.Waiting(); got != 1 {
		t.Fatalf("%d fake timers pending at 15s - 1ns, want the call's grace timer", got)
	}
	select {
	case err := <-done:
		t.Fatalf("call returned %v before its 15s grace elapsed", err)
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if !errors.Is(err, routing.ErrNoReplicas) {
			t.Fatalf("err = %v, want ErrNoReplicas", err)
		}
	case <-time.After(wallBound):
		t.Fatal("call still waiting after its 15s grace elapsed")
	}
}

func TestNoReplicaGraceRespectsCancellation(t *testing.T) {
	// The fake clock never moves, so only the cancellation can end the wait.
	const component = "grace_cancel/C"
	clk := clock.NewFake()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var args, res emptyMsg
		done <- conn.Invoke(ctx, component, emptySpec(false), &args, &res, 0, false)
	}()
	eventually(t, "the call to arm its grace timer", func() bool { return clk.Waiting() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(wallBound):
		t.Fatalf("call still waiting %v after its ctx was canceled", wallBound)
	}
}

// lateCtx has a deadline that has already passed while its Err is still
// nil, as a context.WithDeadline reports until its timer fires.
type lateCtx struct {
	context.Context
	deadline time.Time
}

func (c lateCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func TestNoAttemptStartsPastDeadline(t *testing.T) {
	// An attempt sent with no time left can only expire, and its expiry
	// must not be charged to the replica it happened to pick. Enough late
	// calls are made to trip the breaker if each charged the replica.
	const component = "late_test/C"
	const lateCalls = 16
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true})
	defer conn.Close()
	conn.UpdateRouting(1, []string{addr}, nil)

	ctx := lateCtx{Context: context.Background(), deadline: time.Now().Add(-time.Millisecond)}
	for i := 0; i < lateCalls; i++ {
		var args, res emptyMsg
		err := conn.Invoke(ctx, component, emptySpec(false), &args, &res, 0, false)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d past its deadline = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("replica executed %d calls past the deadline", got)
	}
	if got := conn.BreakerState(addr); got != rpc.BreakerClosed {
		t.Errorf("breaker = %v after %d calls that never reached the replica, want closed", got, lateCalls)
	}
}

func TestBreakerRoutesAroundSlowReplica(t *testing.T) {
	const component = "brk_test/C"
	slowSrv, slowAddr, slowCalls := startCounting(t, component, rpc.ServerOptions{})
	_, fastAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	slowSrv.SetDelay(150 * time.Millisecond)

	// The breakers read the fake clock, so the cooldown ends only when the
	// test advances it.
	clk := clock.NewFake()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()
	conn.UpdateRouting(1, []string{slowAddr, fastAddr}, nil)

	spec := emptySpec(false)
	invoke := func(timeout time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		var args, res emptyMsg
		return conn.Invoke(ctx, component, spec, &args, &res, 0, false)
	}

	// Deadline-bounded calls against the degraded replica fail and feed the
	// breaker until it opens.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && conn.BreakerState(slowAddr) != rpc.BreakerOpen {
		_ = invoke(50 * time.Millisecond)
	}
	if got := conn.BreakerState(slowAddr); got != rpc.BreakerOpen {
		t.Fatalf("breaker for slow replica = %v, want open", got)
	}

	// With the breaker open, traffic drains to the healthy replica: every
	// call must now succeed within the same deadline the slow replica blew.
	for i := 0; i < 10; i++ {
		if err := invoke(50 * time.Millisecond); err != nil {
			t.Fatalf("call %d failed while slow replica quarantined: %v", i, err)
		}
	}

	// The cooldown runs on the conn's clock: a second of wall time does not
	// end it while the fake clock stands still.
	time.Sleep(time.Second)
	for i := 0; i < 4; i++ {
		if err := invoke(50 * time.Millisecond); err != nil {
			t.Fatalf("call %d failed while slow replica quarantined: %v", i, err)
		}
	}
	if got := conn.BreakerState(slowAddr); got != rpc.BreakerOpen {
		t.Fatalf("breaker = %v after a second of wall time on a stopped clock, want open", got)
	}

	// Heal the replica and end the cooldown; the background Ping probe
	// must close the breaker.
	slowSrv.SetDelay(0)
	clk.Advance(time.Minute)
	before := slowCalls.Load()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && conn.BreakerState(slowAddr) != rpc.BreakerClosed {
		_ = invoke(200 * time.Millisecond) // picks evaluate health, kicking off probes
		time.Sleep(10 * time.Millisecond)
	}
	if got := conn.BreakerState(slowAddr); got != rpc.BreakerClosed {
		t.Fatalf("breaker never closed after replica healed: %v", got)
	}

	// Traffic returns to the healed replica.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && slowCalls.Load() == before {
		if err := invoke(time.Second); err != nil {
			t.Fatalf("call after recovery failed: %v", err)
		}
	}
	if slowCalls.Load() == before {
		t.Error("healed replica never received traffic again")
	}
}

func TestHedgingReducesTailLatency(t *testing.T) {
	const component = "hedge_test/C"
	slowSrv, slowAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	_, fastAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	slowSrv.SetDelay(200 * time.Millisecond)

	conn := NewDataPlaneConn(component, ConnOptions{HedgeAfter: 10 * time.Millisecond})
	defer conn.Close()
	conn.UpdateRouting(1, []string{slowAddr, fastAddr}, nil)

	spec := emptySpec(false)
	var worst time.Duration
	for i := 0; i < 16; i++ {
		var args, res emptyMsg
		start := time.Now()
		if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Half the primaries land on the 200ms replica; the 10ms hedge to the
	// fast one must cap the tail far below the degraded latency.
	if worst >= 150*time.Millisecond {
		t.Errorf("worst latency %v; hedging did not cut the tail below the 200ms replica", worst)
	}
	launched, won := conn.HedgeStats()
	if launched == 0 {
		t.Error("no hedges launched despite a slow primary")
	}
	if won == 0 {
		t.Error("no hedge ever won despite a 200ms-slower primary")
	}
	t.Logf("hedging: worst=%v launched=%d won=%d", worst, launched, won)
}

func TestHedgedCallsSurviveReplicaDeathOnStripedConns(t *testing.T) {
	// Hammer hedged calls over striped connections while one replica dies
	// mid-flight. Conn death must surface to the retry loop as a retryable
	// transport error on every stripe at once, and hedging plus retries
	// must land every call on the surviving replica — the stripe set is one
	// logical replica, not four independently healthy ones.
	const component = "hedge_stripe_race/C"
	doomedSrv, doomedAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	_, safeAddr, safeCalls := startCounting(t, component, rpc.ServerOptions{})
	doomedSrv.SetDelay(3 * time.Millisecond)

	conn := NewDataPlaneConn(component, ConnOptions{
		HedgeAfter: time.Millisecond,
		Client:     rpc.ClientOptions{NumConns: 4},
	})
	defer conn.Close()
	conn.UpdateRouting(1, []string{doomedAddr, safeAddr}, nil)

	spec := emptySpec(false)
	const workers, perWorker = 6, 25
	killAt := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					close(killAt)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				var args, res emptyMsg
				err := conn.Invoke(ctx, component, spec, &args, &res, 0, false)
				cancel()
				if err != nil {
					t.Errorf("worker %d call %d failed despite a live replica: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	<-killAt
	doomedSrv.Close() // every stripe to this replica dies at once
	wg.Wait()

	if got := safeCalls.Load(); got == 0 {
		t.Error("surviving replica executed no calls")
	}
}

func TestHedgingDisabledForNoRetry(t *testing.T) {
	// At-most-once methods must never hedge: two concurrent attempts could
	// both execute.
	const component = "hedge_noretry/C"
	slowSrv, slowAddr, slowCalls := startCounting(t, component, rpc.ServerOptions{})
	_, fastAddr, fastCalls := startCounting(t, component, rpc.ServerOptions{})
	slowSrv.SetDelay(60 * time.Millisecond)

	conn := NewDataPlaneConn(component, ConnOptions{HedgeAfter: 5 * time.Millisecond})
	defer conn.Close()
	conn.UpdateRouting(1, []string{slowAddr, fastAddr}, nil)

	spec := emptySpec(true)
	for i := 0; i < 8; i++ {
		var args, res emptyMsg
		if err := conn.Invoke(context.Background(), component, spec, &args, &res, 0, false); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if launched, _ := conn.HedgeStats(); launched != 0 {
		t.Errorf("noretry method launched %d hedges", launched)
	}
	if total := slowCalls.Load() + fastCalls.Load(); total != 8 {
		t.Errorf("8 noretry calls executed %d times", total)
	}
}

// TestHedgeLoserSpanRecorded checks that when a hedge race is decided, the
// abandoned leg leaves a visible mark in the trace: a span parented under
// the call's span and annotated as the canceled hedge loser.
func TestHedgeLoserSpanRecorded(t *testing.T) {
	const component = "hedge_span/C"
	slowSrv, slowAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	_, fastAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	slowSrv.SetDelay(150 * time.Millisecond)

	// Fraction 0: nothing is recorded unless the span context's sampled
	// bit — the root's decision — forces it through RecordSampled.
	rec := tracing.NewRecorder(0, 0)
	conn := NewDataPlaneConn(component, ConnOptions{HedgeAfter: 5 * time.Millisecond, Tracer: rec})
	defer conn.Close()
	conn.UpdateRouting(1, []string{slowAddr, fastAddr}, nil)

	sc := tracing.NewTrace()
	sc.Sampled = true
	ctx := tracing.ContextWith(context.Background(), sc)
	spec := emptySpec(false)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var args, res emptyMsg
		if err := conn.Invoke(ctx, component, spec, &args, &res, 0, false); err != nil {
			t.Fatal(err)
		}
		if _, won := conn.HedgeStats(); won > 0 {
			break
		}
	}
	if _, won := conn.HedgeStats(); won == 0 {
		t.Fatal("no hedge ever won against a 150ms-slower primary")
	}

	// The loser span is recorded asynchronously, after the abandoned leg
	// observes its cancellation.
	var loser *tracing.Span
	for time.Now().Before(deadline) && loser == nil {
		for _, s := range rec.Drain() {
			if s.Err == "canceled (hedge loser)" {
				s := s
				loser = &s
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if loser == nil {
		t.Fatal("no hedge-loser span recorded")
	}
	if loser.Trace != uint64(sc.Trace) {
		t.Errorf("loser span trace = %d, want the caller's trace %d", loser.Trace, sc.Trace)
	}
	if loser.Parent != uint64(sc.Span) {
		t.Errorf("loser span parent = %d, want the call's span %d", loser.Parent, sc.Span)
	}
	if !loser.Remote {
		t.Error("loser span not marked remote")
	}
}
