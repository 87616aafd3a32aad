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
	"repro/internal/routing"
	"repro/internal/rpc"
)

// countingBalancer counts the picks it serves, so a test can tell when a
// waiting call has re-picked.
type countingBalancer struct {
	routing.Balancer
	picks atomic.Int64
}

func (b *countingBalancer) Pick(shard uint64, hasShard bool) (string, error) {
	b.picks.Add(1)
	return b.Balancer.Pick(shard, hasShard)
}

// wallBound is how long a test waits in real time for something a routing
// push should cause at once. It bounds a hang, not a latency.
const wallBound = 5 * time.Second

// eventually polls cond in real time until it holds or wallBound passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(wallBound); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", wallBound, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// invokeAsync starts one empty call on conn and returns its result channel.
func invokeAsync(conn *DataPlaneConn, component string) <-chan error {
	done := make(chan error, 1)
	go func() {
		var args, res emptyMsg
		done <- conn.Invoke(context.Background(), component, emptySpec(false), &args, &res, 0, false)
	}()
	return done
}

func TestRoutingPushWakesWaitingCall(t *testing.T) {
	// The fake clock never moves, so only the push can end the wait: a
	// caller that re-picked on a timer would sleep forever.
	const component = "wake_test/C"
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	clk := clock.NewFake()
	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(),
		ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()

	done := invokeAsync(conn, component)
	eventually(t, "the call to arm its grace timer", func() bool { return clk.Waiting() == 1 })
	conn.UpdateRouting(1, []string{addr}, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after the push = %v, want success", err)
		}
	case <-time.After(wallBound):
		t.Fatalf("call still waiting %v after a push installed a live replica", wallBound)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("replica executed %d calls, want 1", got)
	}
	if got := clk.Waiting(); got != 0 {
		t.Errorf("%d fake timers left pending; the grace timer was not stopped", got)
	}
}

func TestEmptyRoutingPushRewaits(t *testing.T) {
	// A push that leaves the set empty wakes the waiter, which re-picks,
	// finds nothing and waits again on the same grace deadline.
	const component = "wake_empty/C"
	clk := clock.NewFake()
	bal := &countingBalancer{Balancer: routing.NewRoundRobin()}
	conn := NewDataPlaneConnWith(component, bal,
		ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()

	done := invokeAsync(conn, component)
	// The first pick finds the set empty; the second runs once the wake
	// channel is taken.
	eventually(t, "the call to wait for a push", func() bool { return bal.picks.Load() >= 2 })
	before := bal.picks.Load()
	conn.UpdateRouting(1, nil, nil)
	eventually(t, "the empty push to wake the call", func() bool { return bal.picks.Load() > before })
	select {
	case err := <-done:
		t.Fatalf("call returned %v after an empty push; it must wait out the grace", err)
	default:
	}
	if got := clk.Waiting(); got != 1 {
		t.Errorf("%d fake timers pending after the re-wait, want the one grace timer", got)
	}
	clk.Advance(noReplicaGrace)
	select {
	case err := <-done:
		if !errors.Is(err, routing.ErrNoReplicas) {
			t.Fatalf("call past the grace = %v, want ErrNoReplicas", err)
		}
	case <-time.After(wallBound):
		t.Fatal("call still waiting after the grace elapsed")
	}
}

func TestConcurrentWaitersRacePushes(t *testing.T) {
	// Waiters arrive while empty pushes stream in; once a push installs a
	// live replica, every waiter must return, whichever push it slept on.
	const component = "wake_race/C"
	const waiters = 32
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	clk := clock.NewFake() // never advanced: a lost wake-up hangs the test
	conn := NewDataPlaneConnWith(component, routing.NewRoundRobin(),
		ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()

	start := make(chan struct{})
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var args, res emptyMsg
			errs <- conn.Invoke(context.Background(), component, emptySpec(false), &args, &res, 0, false)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := uint64(1); i <= 200; i++ {
			conn.UpdateRouting(i, nil, nil)
			runtime.Gosched()
		}
		conn.UpdateRouting(201, []string{addr}, nil)
	}()
	close(start)

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(wallBound):
		t.Fatalf("%d of %d waiters still blocked %v after the live push", waiters-len(errs), waiters, wallBound)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("waiter returned %v, want success", err)
		}
	}
	if got := calls.Load(); got != waiters {
		t.Errorf("replica executed %d calls, want %d", got, waiters)
	}
}
