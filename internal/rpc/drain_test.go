package rpc

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestUnregisterDrainsInflight verifies that Unregister blocks until calls
// already executing the handler finish, and that later calls get
// ErrUnavailable instead of a hard error.
func TestUnregisterDrainsInflight(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	registerBytes(s, "test.Slow", func(ctx context.Context, args []byte) ([]byte, error) {
		close(started)
		<-release
		finished.Store(true)
		return []byte("done"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr, ClientOptions{})
	t.Cleanup(func() { c.Close(); s.Close() })

	var wg sync.WaitGroup
	wg.Add(1)
	var callErr error
	go func() {
		defer wg.Done()
		_, callErr = callBytes(context.Background(), c, MethodKey("test.Slow"), nil, CallOptions{})
	}()
	<-started

	unregistered := make(chan struct{})
	go func() {
		s.Unregister("test.Slow")
		close(unregistered)
	}()

	// Unregister blocks on a WaitGroup (no timers), so give its goroutine
	// plenty of chances to run, then check it has not returned: the
	// in-flight handler is still parked on release.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case <-unregistered:
		t.Fatal("Unregister returned while a call was still executing")
	default:
	}
	close(release)
	select {
	case <-unregistered:
	case <-time.After(2 * time.Second):
		t.Fatal("Unregister did not return after the in-flight call finished")
	}
	wg.Wait()
	if callErr != nil {
		t.Fatalf("in-flight call during Unregister failed: %v", callErr)
	}
	if !finished.Load() {
		t.Fatal("handler did not run to completion")
	}

	// The method is now tombstoned: callers get a retryable unavailable.
	_, err = callBytes(context.Background(), c, MethodKey("test.Slow"), nil, CallOptions{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call after Unregister = %v, want ErrUnavailable", err)
	}

	// Re-registering the same name (the component moved back) must work.
	registerBytes(s, "test.Slow", func(ctx context.Context, args []byte) ([]byte, error) {
		return []byte("back"), nil
	})
	out, err := callBytes(context.Background(), c, MethodKey("test.Slow"), nil, CallOptions{})
	if err != nil || string(out) != "back" {
		t.Fatalf("call after re-register = %q, %v", out, err)
	}
}

// TestUnregisterUnknownIsNoop ensures unregistering a never-registered name
// does nothing, and that unknown methods still fail hard (not retryable).
func TestUnregisterUnknownIsNoop(t *testing.T) {
	c, s, _ := startEcho(t)
	s.Unregister("test.Nonexistent")
	_, err := callBytes(context.Background(), c, MethodKey("test.Nonexistent"), nil, CallOptions{})
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("unknown method = %v, want hard dispatch error", err)
	}
}

// TestDrainFinishesInflight verifies Drain lets queued work complete and
// answers new requests with a retryable unavailable instead of dropping
// them or breaking the connection. Drain's internal poll runs on the
// server's clock, so the test drives it with a fake clock instead of
// sleeping.
func TestDrainFinishesInflight(t *testing.T) {
	fake := clock.NewFake()
	s := NewServerWithOptions(ServerOptions{Clock: fake})
	started := make(chan struct{})
	release := make(chan struct{})
	registerBytes(s, "test.Slow", func(ctx context.Context, args []byte) ([]byte, error) {
		close(started)
		<-release
		return []byte("done"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr, ClientOptions{})
	t.Cleanup(func() { c.Close(); s.Close() })

	var wg sync.WaitGroup
	wg.Add(1)
	var slowOut []byte
	var slowErr error
	go func() {
		defer wg.Done()
		slowOut, slowErr = callBytes(context.Background(), c, MethodKey("test.Slow"), nil, CallOptions{})
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Drain stores the draining flag, sees the in-flight call, and parks on
	// the fake clock's poll timer — so the timer registering IS the "server
	// is visibly draining" signal.
	waitFor(t, func() bool { return fake.Waiting() > 0 })

	// New calls must now get a retryable unavailable, never execute.
	_, err = callBytes(context.Background(), c, MethodKey("test.Slow"), nil, CallOptions{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call while draining = %v, want ErrUnavailable", err)
	}
	close(release)

	// Step the poll loop until Drain observes zero in-flight requests.
	for done := false; !done; {
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("Drain = %v", err)
			}
			done = true
		default:
			if fake.Waiting() > 0 {
				fake.Advance(2 * time.Millisecond)
			}
			runtime.Gosched()
		}
	}
	wg.Wait()
	if slowErr != nil || string(slowOut) != "done" {
		t.Fatalf("in-flight call during Drain = %q, %v; want done, nil", slowOut, slowErr)
	}
}

// TestDrainTimesOut verifies Drain respects its context when a handler
// never finishes. The fake clock keeps Drain's poll parked so the context
// is provably what unblocked it.
func TestDrainTimesOut(t *testing.T) {
	fake := clock.NewFake()
	s := NewServerWithOptions(ServerOptions{Clock: fake})
	started := make(chan struct{})
	release := make(chan struct{})
	registerBytes(s, "test.Stuck", func(ctx context.Context, args []byte) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr, ClientOptions{})
	t.Cleanup(func() { close(release); c.Close(); s.Close() })

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("test.Stuck"), nil, CallOptions{})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// Drain is parked on its poll timer with the stuck handler in flight;
	// canceling the context must be what unblocks it.
	waitFor(t, func() bool { return fake.Waiting() > 0 })
	cancel()
	select {
	case err := <-drained:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Drain = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after its context was canceled")
	}
}

// TestServeAfterCloseClosesListener covers a Close that runs before the
// goroutine Listen starts reaches Serve: Serve must close the listener it
// is handed, or the address keeps accepting connections nobody serves.
func TestServeAfterCloseClosesListener(t *testing.T) {
	s := NewServer()
	s.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if err := s.Serve(lis); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on a closed server = %v, want net.ErrClosed", err)
	}
	// An open listener would block in Accept; the deadline bounds that.
	_ = lis.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second))
	if _, err := lis.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener after Serve on a closed server: Accept = %v, want net.ErrClosed", err)
	}
}
