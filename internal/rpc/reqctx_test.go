package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tracing"
)

// These tests pin the served request context's deadline semantics on a
// fake clock: Err is exact without anyone waiting, Done closes within one
// wheel tick of the deadline, and every way a request ends — expiry,
// cancel frame, finish — releases Done waiters and leaves the wheel empty.
// A context read after its request ended answers as that request, whatever
// its slot serves since.

// reqDeadline is a deadline inside a wheel tick, so the tests also cover
// a deadline that does not fall on a tick boundary.
const reqDeadline = 5*time.Millisecond + 500*time.Microsecond

func fakeServer() (*Server, *clock.Fake) {
	f := clock.NewFake()
	return NewServerWithOptions(ServerOptions{Clock: f}), f
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestReqCtxDeadline(t *testing.T) {
	s, f := fakeServer()
	if _, ok := newReqCtx(s, header{}).Deadline(); ok {
		t.Error("request without a wire deadline reports one")
	}
	want := f.Now().Add(reqDeadline)
	got, ok := newReqCtx(s, header{deadline: want.UnixNano()}).Deadline()
	if !ok || !got.Equal(want) {
		t.Errorf("Deadline() = %v, %v; want %v, true", got, ok, want)
	}
}

// Err turns DeadlineExceeded exactly at the deadline, by the clock alone,
// before the wheel's tick for it comes round.
func TestReqCtxErrExactAtDeadline(t *testing.T) {
	s, f := fakeServer()
	rc := newReqCtx(s, header{deadline: f.Now().Add(reqDeadline).UnixNano()})
	f.Advance(reqDeadline - time.Nanosecond)
	if err := rc.Err(); err != nil {
		t.Fatalf("Err() = %v one nanosecond before the deadline", err)
	}
	f.Advance(time.Nanosecond)
	if err := rc.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() = %v at the deadline, want DeadlineExceeded", err)
	}
	rc.finish()
}

// A request's deadline is on the wheel from the start, and its Done
// closes within one wheel tick of the deadline.
func TestReqCtxDoneClosesWithinOneTick(t *testing.T) {
	s, f := fakeServer()
	rc := newReqCtx(s, header{deadline: f.Now().Add(reqDeadline).UnixNano()})
	if n := s.wheel.Len(); n != 1 {
		t.Fatalf("wheel holds %d entries for a deadline-carrying request, want 1", n)
	}
	done := rc.Done()
	waitFor(t, func() bool { return f.Waiting() == 1 })
	f.Advance(reqDeadline - time.Nanosecond)
	waitFor(t, func() bool { return f.Waiting() == 1 })
	if closed(done) {
		t.Fatal("Done closed before the deadline")
	}
	f.Advance(time.Nanosecond + s.wheel.Tick())
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Done still open one wheel tick after the deadline")
	}
	if err := rc.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() = %v after expiry, want DeadlineExceeded", err)
	}
	if n := s.wheel.Len(); n != 0 {
		t.Errorf("wheel holds %d entries after expiry", n)
	}
	waitFor(t, func() bool { return f.Waiting() == 0 })
}

// finish unlinks the wheel entry and releases the Done waiter.
func TestReqCtxFinishStopsEntry(t *testing.T) {
	s, f := fakeServer()
	rc := newReqCtx(s, header{deadline: f.Now().Add(reqDeadline).UnixNano()})
	done := rc.Done()
	rc.finish()
	if n := s.wheel.Len(); n != 0 {
		t.Errorf("wheel holds %d entries after finish", n)
	}
	if !closed(done) {
		t.Error("Done open after finish")
	}
	if err := rc.Err(); err != context.Canceled {
		t.Errorf("Err() = %v after finish, want Canceled", err)
	}
	if !closed(rc.Done()) {
		t.Error("Done taken after finish is open")
	}
	// Let the runner observe the drained wheel and exit.
	waitFor(t, func() bool { return f.Waiting() == 1 })
	f.Advance(s.wheel.Tick())
	waitFor(t, func() bool { return f.Waiting() == 0 })
}

// A cancel frame on the connection closes the handler's Done.
func TestReqCtxCancelFrameClosesDone(t *testing.T) {
	s, f := fakeServer()
	started := make(chan struct{})
	errs := make(chan error, 1)
	registerBytes(s, "reqctx.Wait", func(ctx context.Context, args []byte) ([]byte, error) {
		done := ctx.Done()
		close(started)
		<-done
		errs <- ctx.Err()
		return nil, nil
	})
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	s.wg.Add(1)
	go s.serveConn(srvSide)
	go func() { // drain responses so the server's writes never block
		var buf []byte
		for {
			if _, err := readFrameInto(cliSide, &buf); err != nil {
				return
			}
		}
	}()

	// A deadline far past the test keeps the wheel busy but idle: only
	// the cancel frame can close Done.
	rawRequestDeadline(t, cliSide, 5, MethodKey("reqctx.Wait"), f.Now().Add(time.Hour).UnixNano())
	<-started
	writeCancelFrame(t, cliSide, 5)
	select {
	case err := <-errs:
		if err != context.Canceled {
			t.Errorf("Err() after cancel frame = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel frame did not close Done")
	}
	cliSide.Close()
	s.Close()
	if n := s.wheel.Len(); n != 0 {
		t.Errorf("wheel holds %d entries after the request finished", n)
	}
}

// writeCancelFrame writes the cancel frame for request id.
func writeCancelFrame(t *testing.T, conn net.Conn, id uint64) {
	t.Helper()
	var cancelFrame [9]byte
	cancelFrame[0] = frameCancel
	putUint64(cancelFrame[1:], id)
	if _, err := conn.Write(mkFrame(cancelFrame[:])); err != nil {
		t.Fatal(err)
	}
}

// rawRequestDeadline writes one request frame carrying a wire deadline.
func rawRequestDeadline(t *testing.T, conn net.Conn, id uint64, method MethodID, deadline int64) {
	t.Helper()
	rawHeader(t, conn, header{id: id, method: method, deadline: deadline})
}

// A child of context.WithCancel(rc) is cancelled when rc expires. reqCtx
// is not a stdlib cancelCtx, so the context package watches rc.Done from
// its own goroutine and then reads rc.Err — a stale-holder read once the
// request finishes, which the handle answers with its own end error
// however the slot has moved on (TestReqCtxStaleHolder).
func TestReqCtxChildCancelledOnExpiry(t *testing.T) {
	s, f := fakeServer()
	rc := newReqCtx(s, header{deadline: f.Now().Add(reqDeadline).UnixNano()})
	child, cancel := context.WithCancel(rc)
	defer cancel()
	waitFor(t, func() bool { return f.Waiting() == 1 })
	f.Advance(reqDeadline)
	waitFor(t, func() bool { return f.Waiting() == 1 })
	f.Advance(s.wheel.Tick())
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("child context still open after the parent request expired")
	}
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("child Err() = %v, want DeadlineExceeded", err)
	}
	rc.finish()
}

// Done racing finish and cancel must stay clean under the race detector,
// always end with Done closed, and never leave an entry on the wheel.
func TestReqCtxDoneRacesFinish(t *testing.T) {
	s := NewServer()
	deadline := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < 200; i++ {
		rc := newReqCtx(s, header{deadline: deadline})
		var wg sync.WaitGroup
		chans := make([]<-chan struct{}, 3)
		for j := range chans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chans[j] = rc.Done()
				_ = rc.Err()
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			rc.end(ctxCanceled)
		}()
		go func() {
			defer wg.Done()
			rc.finish()
		}()
		wg.Wait()
		for j, ch := range chans {
			if !closed(ch) {
				t.Fatalf("round %d: Done %d open after finish", i, j)
			}
		}
		if rc.Err() == nil {
			t.Fatalf("round %d: Err() nil after finish", i)
		}
		if n := s.wheel.Len(); n != 0 {
			t.Fatalf("round %d: wheel holds %d entries after finish", i, n)
		}
	}
}

// A nestedEnd is one way a served request ends while its handler waits
// on a nested call: it gets the upstream server's clock, the raw client
// side of the request's connection and the request's context.
type nestedEnd struct {
	name     string
	deadline time.Duration // the request's wire deadline, 0 for none
	end      func(t *testing.T, f *clock.Fake, s *Server, cli net.Conn, rc *reqCtx)
	want     error
}

var nestedEnds = []nestedEnd{
	{"CancelFrame", 0, func(t *testing.T, _ *clock.Fake, _ *Server, cli net.Conn, _ *reqCtx) {
		writeCancelFrame(t, cli, 5)
	}, context.Canceled},
	{"ConnDeath", 0, func(_ *testing.T, _ *clock.Fake, _ *Server, cli net.Conn, _ *reqCtx) {
		cli.Close()
	}, context.Canceled},
	{"WheelExpiry", reqDeadline, func(t *testing.T, f *clock.Fake, s *Server, _ net.Conn, _ *reqCtx) {
		waitFor(t, func() bool { return f.Waiting() == 1 })
		f.Advance(reqDeadline)
		waitFor(t, func() bool { return f.Waiting() == 1 })
		f.Advance(s.wheel.Tick())
	}, context.DeadlineExceeded},
	// Err reads the clock and ends the context before the wheel's tick.
	{"ErrAtDeadline", reqDeadline, func(_ *testing.T, f *clock.Fake, _ *Server, _ net.Conn, rc *reqCtx) {
		f.Advance(reqDeadline)
		_ = rc.Err()
	}, context.DeadlineExceeded},
}

// TestNestedCallEndsWithRequest makes a handler's one nested call wait
// on a downstream handler that never answers on its own, then ends the
// served request each way a request can end. The nested call, waiting on
// its reply alone, must return the request context's error without
// anyone having made the context's done channel, and its cancel frame
// must end the downstream request.
func TestNestedCallEndsWithRequest(t *testing.T) {
	for _, tc := range nestedEnds {
		t.Run(tc.name, func(t *testing.T) {
			// The downstream server's clock never moves, so its copy of
			// the wire deadline cannot end its request: only the cancel
			// frame can.
			down := NewServerWithOptions(ServerOptions{Clock: clock.NewFake()})
			downStarted := make(chan struct{})
			downEnded := make(chan error, 1)
			registerBytes(down, "nested.Wait", func(ctx context.Context, _ []byte) ([]byte, error) {
				close(downStarted)
				<-ctx.Done()
				downEnded <- ctx.Err()
				return nil, nil
			})
			c := dialedClient(t, down)

			s, f := fakeServer()
			served := make(chan *reqCtx, 1)
			type outcome struct {
				err  error
				done bool // the context's done channel was made
			}
			outcomes := make(chan outcome, 1)
			registerBytes(s, "nested.Call", func(ctx context.Context, _ []byte) ([]byte, error) {
				rc := ctx.(*reqCtx)
				served <- rc
				_, err := callBytes(ctx, c, MethodKey("nested.Wait"), nil, CallOptions{})
				rc.mu.Lock()
				made := rc.done != nil
				rc.mu.Unlock()
				outcomes <- outcome{err, made}
				return nil, err
			})
			cli := serveRaw(t, s)
			var deadline int64
			if tc.deadline != 0 {
				deadline = f.Now().Add(tc.deadline).UnixNano()
			}
			rawRequestDeadline(t, cli, 5, MethodKey("nested.Call"), deadline)
			rc := <-served
			<-downStarted
			waitFor(t, func() bool {
				rc.mu.Lock()
				defer rc.mu.Unlock()
				return rc.nested != nil
			})
			tc.end(t, f, s, cli, rc)

			select {
			case o := <-outcomes:
				if o.err != tc.want {
					t.Errorf("nested call returned %v, want %v", o.err, tc.want)
				}
				if o.done {
					t.Error("the nested call made the request context's done channel")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the nested call outlived its request")
			}
			select {
			case err := <-downEnded:
				if err != context.Canceled {
					t.Errorf("downstream request ended with %v, want Canceled by the cancel frame", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no cancel frame reached the downstream server")
			}
			if n := c.PendingCalls(); n != 0 {
				t.Errorf("%d calls still registered on the nested call's client", n)
			}
			if n := c.inflightCalls(); n != 0 {
				t.Errorf("%d calls still counted against a stripe of the nested call's client", n)
			}
			cli.Close()
			s.Close()
		})
	}
}

// Two nested calls waiting under one request at once: the first waits on
// its reply alone, the second selects on Done, and the request's end
// releases both, each with a cancel frame to the downstream server.
func TestConcurrentNestedCallsEndWithRequest(t *testing.T) {
	down := NewServer()
	started := make(chan struct{}, 2)
	downEnded := make(chan error, 2)
	registerBytes(down, "nested.Wait", func(ctx context.Context, _ []byte) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		downEnded <- ctx.Err()
		return nil, nil
	})
	c := dialedClient(t, down)

	s, _ := fakeServer()
	errs := make(chan error, 2)
	registerBytes(s, "nested.Call", func(ctx context.Context, _ []byte) ([]byte, error) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := callBytes(ctx, c, MethodKey("nested.Wait"), nil, CallOptions{})
				errs <- err
			}()
		}
		wg.Wait()
		return nil, nil
	})
	cli := serveRaw(t, s)
	rawRequestDeadline(t, cli, 5, MethodKey("nested.Call"), 0)
	for i := 0; i < 2; i++ {
		<-started
	}
	writeCancelFrame(t, cli, 5)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != context.Canceled {
				t.Errorf("nested call %d returned %v, want Canceled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("nested call %d outlived its request", i)
		}
		select {
		case <-downEnded:
		case <-time.After(5 * time.Second):
			t.Fatalf("cancel frame %d never reached the downstream server", i)
		}
	}
	cli.Close()
	s.Close()
}

// serveRaw serves one net.Pipe connection on s and returns its client
// side, whose responses are read and dropped so the server's writes
// never block.
func serveRaw(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cliSide, srvSide := net.Pipe()
	t.Cleanup(func() { cliSide.Close() })
	s.wg.Add(1)
	go s.serveConn(srvSide)
	go func() {
		var buf []byte
		for {
			if _, err := readFrameInto(cliSide, &buf); err != nil {
				return
			}
		}
	}()
	return cliSide
}

// dialedClient serves down on loopback and returns a one-stripe client to
// it that has already dialed, so the nested calls under test never dial
// under the served request's context (a dial asks that context for Done,
// and fails at once on a deadline from a fake clock).
func dialedClient(t *testing.T, down *Server) *Client {
	t.Helper()
	registerBytes(down, "nested.Ping", func(context.Context, []byte) ([]byte, error) { return nil, nil })
	addr, err := down.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { down.Close() })
	c := NewClient(addr, ClientOptions{NumConns: 1})
	t.Cleanup(func() { c.Close() })
	if _, err := callBytes(context.Background(), c, MethodKey("nested.Ping"), nil, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// staleRequests is how many requests a leaked context's slot serves after
// its own request ended, while the leaked context is read.
const staleRequests = 100

// TestReqCtxStaleHolder leaks a served request's context to a goroutine,
// ends the request by a cancel frame or by wheel expiry, and then has the
// request's worker serve staleRequests more requests in the same slot,
// half of them on the slot's wheel entry, while the goroutine keeps
// reading the leaked context. Throughout, the leaked context must answer
// as its own ended request: Done closed, Err its end error, no deadline,
// no CallInfo and no span context. Each request that reuses the slot must
// stay live and see its own call. Last, a cancel frame carrying the
// leaked request's id and a late wheel Expire on the leaked context must
// leave the slot's current request running.
func TestReqCtxStaleHolder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration // the leaked request's wire deadline, 0 for none
		end      func(t *testing.T, f *clock.Fake, s *Server, cli net.Conn)
		want     error
	}{
		{"Canceled", 0, func(t *testing.T, _ *clock.Fake, _ *Server, cli net.Conn) {
			writeCancelFrame(t, cli, 5)
		}, context.Canceled},
		{"Expired", reqDeadline, func(t *testing.T, f *clock.Fake, s *Server, _ net.Conn) {
			waitFor(t, func() bool { return f.Waiting() == 1 })
			f.Advance(reqDeadline)
			waitFor(t, func() bool { return f.Waiting() == 1 })
			f.Advance(s.wheel.Tick())
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := fakeServer()
			leaked := make(chan context.Context, 1)
			registerBytes(s, "stale.Leak", func(ctx context.Context, _ []byte) ([]byte, error) {
				if _, ok := InfoFromContext(ctx); !ok {
					t.Error("no CallInfo while the request runs")
				}
				if _, ok := tracing.FromContext(ctx); !ok {
					t.Error("no span context while the request runs")
				}
				leaked <- ctx
				<-ctx.Done()
				return nil, nil
			})
			type served struct {
				slot *reqSlot
				err  error
				own  bool // InfoFromContext named this request's method and trace
			}
			servedCh := make(chan served, 1)
			registerBytes(s, "stale.Serve", func(ctx context.Context, _ []byte) ([]byte, error) {
				ci, ok := InfoFromContext(ctx)
				servedCh <- served{ctx.(*reqCtx).reqSlot, ctx.Err(), ok && ci.Method == "stale.Serve" && ci.Trace.Trace >= 100}
				return nil, nil
			})
			held := make(chan context.Context, 1)
			release := make(chan struct{})
			registerBytes(s, "stale.Hold", func(ctx context.Context, _ []byte) ([]byte, error) {
				held <- ctx
				<-release
				return nil, nil
			})
			cli := serveRaw(t, s)

			var deadline int64
			if tc.deadline != 0 {
				deadline = f.Now().Add(tc.deadline).UnixNano()
			}
			rawHeader(t, cli, header{id: 5, method: MethodKey("stale.Leak"), deadline: deadline, trace: 11, span: 12})
			ctx := <-leaked
			slot := ctx.(*reqCtx).reqSlot
			tc.end(t, f, s, cli)
			// The leaked request has finished once its worker is idle.
			waitFor(t, func() bool { return idleWorkers(s) == 1 })
			if err := staleErr(ctx, tc.want); err != nil {
				t.Fatalf("leaked context after its request: %v", err)
			}

			stop := make(chan struct{})
			holder := make(chan error, 1)
			go func() {
				for {
					if err := staleErr(ctx, tc.want); err != nil {
						holder <- err
						return
					}
					select {
					case <-stop:
						holder <- nil
						return
					default:
					}
				}
			}()
			for i := 0; i < staleRequests; i++ {
				// One idle worker: the pool hands the next request to it.
				waitFor(t, func() bool { return idleWorkers(s) == 1 })
				var d int64
				if i%2 == 1 {
					d = f.Now().Add(time.Hour).UnixNano()
				}
				rawHeader(t, cli, header{id: uint64(6 + i), method: MethodKey("stale.Serve"), deadline: d, trace: uint64(100 + i), span: 1})
				got := <-servedCh
				if got.slot != slot {
					t.Fatalf("request %d ran in another slot than the leaked context's", i)
				}
				if got.err != nil {
					t.Fatalf("request %d in the leaked context's slot: Err() = %v", i, got.err)
				}
				if !got.own {
					t.Fatalf("request %d in the leaked context's slot does not see its own call", i)
				}
			}
			close(stop)
			if err := <-holder; err != nil {
				t.Errorf("leaked context while its slot served %d requests: %v", staleRequests, err)
			}

			waitFor(t, func() bool { return idleWorkers(s) == 1 })
			rawHeader(t, cli, header{id: 200, method: MethodKey("stale.Hold"), deadline: f.Now().Add(time.Hour).UnixNano()})
			cur := <-held
			if cur.(*reqCtx).reqSlot != slot {
				t.Fatal("the held request ran in another slot than the leaked context's")
			}
			writeCancelFrame(t, cli, 5)
			ctx.(*reqCtx).Expire()
			// Frames are read in order: once a request sent after the
			// cancel frame runs, the cancel frame has been handled.
			rawHeader(t, cli, header{id: 201, method: MethodKey("stale.Serve")})
			<-servedCh
			if err := cur.Err(); err != nil {
				t.Errorf("the slot's current request ended by the leaked request's cancel frame or expiry: Err() = %v", err)
			}
			if closed(cur.Done()) {
				t.Error("the slot's current request's Done closed by the leaked request's cancel frame or expiry")
			}
			close(release)
			if err := staleErr(ctx, tc.want); err != nil {
				t.Errorf("leaked context at the end: %v", err)
			}
			cli.Close()
			s.Close()
		})
	}
}

// staleErr reports how ctx, whose request ended with want, answers other
// than a stale holder must, or nil.
func staleErr(ctx context.Context, want error) error {
	if !closed(ctx.Done()) {
		return errors.New("Done is open")
	}
	if err := ctx.Err(); err != want {
		return fmt.Errorf("Err() = %v, want %v", err, want)
	}
	if d, ok := ctx.Deadline(); ok {
		return fmt.Errorf("Deadline() = %v, want none", d)
	}
	if ci, ok := InfoFromContext(ctx); ok {
		return fmt.Errorf("InfoFromContext answers %+v", ci)
	}
	if sc, ok := tracing.FromContext(ctx); ok {
		return fmt.Errorf("tracing.FromContext answers %+v", sc)
	}
	return nil
}

// rawHeader writes one request frame with hdr, whose meta must be the
// default.
func rawHeader(t *testing.T, conn net.Conn, hdr header) {
	t.Helper()
	var buf [1 + headerSize]byte
	buf[0] = frameRequest
	hdr.encode(buf[1:])
	if _, err := conn.Write(mkFrame(buf[:])); err != nil {
		t.Fatal(err)
	}
}

// idleWorkers reports how many of s's pool workers are parked.
func idleWorkers(s *Server) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return len(s.pool.idle)
}
