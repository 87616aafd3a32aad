package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/tracing"
)

// startEcho starts a server with an echo handler and returns a connected
// client plus a cleanup-registered shutdown.
func startEcho(t *testing.T) (*Client, *Server, string) {
	t.Helper()
	s := NewServer()
	registerBytes(s, "test.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		out := make([]byte, len(args))
		copy(out, args)
		return out, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr, ClientOptions{})
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c, s, addr
}

func TestEchoRoundTrip(t *testing.T) {
	c, _, _ := startEcho(t)
	got, err := callBytes(context.Background(), c, MethodKey("test.Echo"), []byte("payload"), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Errorf("echo = %q", got)
	}
}

func TestEmptyPayload(t *testing.T) {
	c, _, _ := startEcho(t)
	got, err := callBytes(context.Background(), c, MethodKey("test.Echo"), nil, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("echo of empty = %v", got)
	}
}

func TestLargePayload(t *testing.T) {
	c, _, _ := startEcho(t)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := callBytes(context.Background(), c, MethodKey("test.Echo"), big, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) || got[1<<20] != big[1<<20] {
		t.Errorf("large payload corrupted")
	}
}

func TestUnknownMethod(t *testing.T) {
	c, _, _ := startEcho(t)
	_, err := callBytes(context.Background(), c, MethodKey("test.NoSuch"), nil, CallOptions{})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	s := NewServer()
	registerBytes(s, "test.Slow", func(ctx context.Context, args []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{NumConns: 1})
	defer c.Close()

	const n = 50
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("req-%d", i))
			got, err := callBytes(context.Background(), c, MethodKey("test.Slow"), payload, CallOptions{})
			if err == nil && string(got) != string(payload) {
				err = fmt.Errorf("response mismatch: %q", got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	// 50 sequential 20ms calls would take 1s; multiplexing should finish in
	// a fraction of that.
	if elapsed > 500*time.Millisecond {
		t.Errorf("50 concurrent calls took %v; not multiplexed?", elapsed)
	}
}

func TestDeadlinePropagatedToServer(t *testing.T) {
	sawDeadline := make(chan bool, 1)
	s := NewServer()
	registerBytes(s, "test.Check", func(ctx context.Context, args []byte) ([]byte, error) {
		_, ok := ctx.Deadline()
		sawDeadline <- ok
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := callBytes(ctx, c, MethodKey("test.Check"), nil, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	if !<-sawDeadline {
		t.Error("server handler saw no deadline")
	}
}

func TestCancellationPropagates(t *testing.T) {
	started := make(chan struct{})
	canceled := make(chan struct{})
	s := NewServer()
	registerBytes(s, "test.Hang", func(ctx context.Context, args []byte) ([]byte, error) {
		close(started)
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := callBytes(ctx, c, MethodKey("test.Hang"), nil, CallOptions{})
		done <- err
	}()
	<-started
	cancel()

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("call error = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Error("server handler never observed cancellation")
	}
}

func TestHandlerPanicReturnsError(t *testing.T) {
	s := NewServer()
	registerBytes(s, "test.Panic", func(ctx context.Context, args []byte) ([]byte, error) {
		panic("deliberate")
	})
	registerBytes(s, "test.OK", func(ctx context.Context, args []byte) ([]byte, error) {
		return []byte("fine"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	_, err = callBytes(context.Background(), c, MethodKey("test.Panic"), nil, CallOptions{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic call err = %v", err)
	}
	// The connection must survive a handler panic.
	got, err := callBytes(context.Background(), c, MethodKey("test.OK"), nil, CallOptions{})
	if err != nil || string(got) != "fine" {
		t.Errorf("follow-up call = %q, %v", got, err)
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	s := NewServer()
	registerBytes(s, "test.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go func() { _ = s.Serve(lis) }()

	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	if _, err := callBytes(context.Background(), c, MethodKey("test.Echo"), []byte("a"), CallOptions{}); err != nil {
		t.Fatal(err)
	}

	// Restart the server on the same port.
	s.Close()
	s2 := NewServer()
	registerBytes(s2, "test.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	var lis2 net.Listener
	for i := 0; i < 50; i++ {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer s2.Close()
	go func() { _ = s2.Serve(lis2) }()

	// First call may fail while the old connection is discovered dead;
	// retry until the client reconnects.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := callBytes(context.Background(), c, MethodKey("test.Echo"), []byte("b"), CallOptions{})
		if err == nil {
			if string(got) != "b" {
				t.Fatalf("echo after restart = %q", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTraceContextPropagates(t *testing.T) {
	var got tracing.SpanContext
	s := NewServer()
	registerBytes(s, "test.Trace", func(ctx context.Context, args []byte) ([]byte, error) {
		if info, ok := InfoFromContext(ctx); ok {
			got = info.Trace
		}
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	want := tracing.SpanContext{Trace: 111, Span: 222, Parent: 333}
	if _, err := callBytes(context.Background(), c, MethodKey("test.Trace"), nil, CallOptions{Trace: want}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("trace context = %+v, want %+v", got, want)
	}
}

func TestShardPropagates(t *testing.T) {
	var got uint64
	s := NewServer()
	registerBytes(s, "test.Shard", func(ctx context.Context, args []byte) ([]byte, error) {
		if info, ok := InfoFromContext(ctx); ok {
			got = info.Shard
		}
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	if _, err := callBytes(context.Background(), c, MethodKey("test.Shard"), nil, CallOptions{Shard: 777}); err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Errorf("shard = %d, want 777", got)
	}
}

func TestPing(t *testing.T) {
	c, _, _ := startEcho(t)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPingFailsAfterServerClose(t *testing.T) {
	c, s, _ := startEcho(t)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Either the ping fails outright or the connection is found dead and
	// redial fails.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Ping(context.Background()); err != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("ping kept succeeding after server close")
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	registerBytes(s, "test.Block", func(ctx context.Context, args []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(block)
	c := NewClient(addr, ClientOptions{})

	done := make(chan error, 1)
	go func() {
		_, err := callBytes(context.Background(), c, MethodKey("test.Block"), nil, CallOptions{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call hung after Close")
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	c, _, _ := startEcho(t)
	c.Close()
	_, err := callBytes(context.Background(), c, MethodKey("test.Echo"), nil, CallOptions{})
	if err == nil {
		t.Error("call after Close succeeded")
	}
}

func TestRegisterCollisionPanics(t *testing.T) {
	s := NewServer()
	registerBytes(s, "a.B.C", func(ctx context.Context, args []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	registerBytes(s, "a.B.C", func(ctx context.Context, args []byte) ([]byte, error) { return nil, nil })
}

func TestMethodKeyDeterministic(t *testing.T) {
	if MethodKey("x.Y.Z") != MethodKey("x.Y.Z") {
		t.Error("MethodKey not deterministic")
	}
	if MethodKey("x.Y.Z") == MethodKey("x.Y.W") {
		t.Error("distinct names collide (unlucky, pick different test names)")
	}
}

func TestCodecPayloadOverRPC(t *testing.T) {
	// End-to-end: a struct encoded with the unversioned codec survives the
	// wire, mimicking what generated stubs do.
	type req struct {
		Who   string
		Count int
	}
	s := NewServer()
	registerBytes(s, "test.Greet", func(ctx context.Context, args []byte) ([]byte, error) {
		var r req
		if err := codec.Unmarshal(args, &r); err != nil {
			return nil, err
		}
		return codec.Marshal(fmt.Sprintf("hello %s x%d", r.Who, r.Count)), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	out, err := callBytes(context.Background(), c, MethodKey("test.Greet"), codec.Marshal(req{Who: "world", Count: 3}), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var msg string
	if err := codec.Unmarshal(out, &msg); err != nil {
		t.Fatal(err)
	}
	if msg != "hello world x3" {
		t.Errorf("msg = %q", msg)
	}
}

func TestServerConnCleanupCancelsOnDisconnect(t *testing.T) {
	var sawCancel atomic.Bool
	started := make(chan struct{})
	s := NewServer()
	registerBytes(s, "test.Hang", func(ctx context.Context, args []byte) ([]byte, error) {
		close(started)
		<-ctx.Done()
		sawCancel.Store(true)
		return nil, ctx.Err()
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})

	go func() {
		_, _ = callBytes(context.Background(), c, MethodKey("test.Hang"), nil, CallOptions{})
	}()
	<-started
	c.Close() // drop the TCP connection entirely

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sawCancel.Load() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("handler not canceled after client disconnect")
}
