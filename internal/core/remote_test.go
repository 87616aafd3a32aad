package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
func startCounting(t *testing.T, component string, opts rpc.ServerOptions) (*rpc.Server, string, *atomic.Int64) {
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

	conn := NewDataPlaneConnWith(component, &scriptedBalancer{seq: []string{addrA, addrB}},
		ConnOptions{DisableHedging: true})
	defer conn.Close()

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

	// The balancer proposes the dead replica twice in a row; the retry loop
	// must re-pick past the already-tried address and reach the live one.
	bal := &scriptedBalancer{seq: []string{dead, dead, live}}
	conn := NewDataPlaneConnWith(component, bal,
		ConnOptions{DisableHedging: true})
	defer conn.Close()

	var args, res emptyMsg
	if err := conn.Invoke(context.Background(), component, emptySpec(false), &args, &res, 0, false); err != nil {
		t.Fatalf("call failed despite a live replica: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("live replica executed %d calls, want 1", got)
	}
	if picks := bal.i.Load(); picks < 3 {
		t.Errorf("balancer consulted %d times; retry did not re-pick past the tried replica", picks)
	}
}

func TestNoReplicaGraceInjectable(t *testing.T) {
	conn := NewDataPlaneConnWith("grace_test/C", routing.NewRoundRobin(),
		ConnOptions{NoReplicaGrace: 80 * time.Millisecond, DisableHedging: true})
	defer conn.Close()

	var args, res emptyMsg
	start := time.Now()
	err := conn.Invoke(context.Background(), "grace_test/C", emptySpec(false), &args, &res, 0, false)
	elapsed := time.Since(start)
	if !errors.Is(err, routing.ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("failed after %v; grace period not honored", elapsed)
	}
	if elapsed > time.Second {
		t.Errorf("failed after %v; injected 80ms grace not applied", elapsed)
	}
}

func TestNoReplicaGraceRespectsCancellation(t *testing.T) {
	conn := NewDataPlaneConnWith("grace_cancel/C", routing.NewRoundRobin(),
		ConnOptions{NoReplicaGrace: 5 * time.Second, DisableHedging: true})
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	var args, res emptyMsg
	start := time.Now()
	err := conn.Invoke(ctx, "grace_cancel/C", emptySpec(false), &args, &res, 0, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v to unblock the grace wait", elapsed)
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
	// must not be charged to the replica it happened to pick.
	const component = "late_test/C"
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(addr),
		ConnOptions{DisableHedging: true, Breaker: rpc.BreakerOptions{MinSamples: 1}})
	defer conn.Close()

	ctx := lateCtx{Context: context.Background(), deadline: time.Now().Add(-time.Millisecond)}
	var args, res emptyMsg
	err := conn.Invoke(ctx, component, emptySpec(false), &args, &res, 0, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("replica executed %d calls past the deadline", got)
	}
	if got := conn.BreakerState(addr); got != rpc.BreakerClosed {
		t.Errorf("breaker = %v after a call that never reached the replica, want closed", got)
	}
}

func TestBreakerRoutesAroundSlowReplica(t *testing.T) {
	const component = "brk_test/C"
	slowSrv, slowAddr, slowCalls := startCounting(t, component, rpc.ServerOptions{})
	_, fastAddr, _ := startCounting(t, component, rpc.ServerOptions{})
	slowSrv.SetDelay(150 * time.Millisecond)

	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(slowAddr, fastAddr),
		ConnOptions{
			DisableHedging: true,
			Breaker: rpc.BreakerOptions{
				MinSamples: 2,
				Threshold:  0.5,
				Cooldown:   500 * time.Millisecond,
			},
		})
	defer conn.Close()

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

	// Heal the replica; the background Ping probe must close the breaker.
	slowSrv.SetDelay(0)
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

	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(slowAddr, fastAddr),
		ConnOptions{HedgeAfter: 10 * time.Millisecond})
	defer conn.Close()

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

	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(doomedAddr, safeAddr),
		ConnOptions{
			HedgeAfter: time.Millisecond,
			Client:     rpc.ClientOptions{NumConns: 4},
		})
	defer conn.Close()

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

	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(slowAddr, fastAddr),
		ConnOptions{HedgeAfter: 5 * time.Millisecond})
	defer conn.Close()

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
	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(slowAddr, fastAddr),
		ConnOptions{HedgeAfter: 5 * time.Millisecond, Tracer: rec})
	defer conn.Close()

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
