package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestStripedCloseRace hammers Client.Close against concurrent in-flight
// calls on striped connections. Every call must either succeed with an
// uncorrupted echo (its own unique payload back — a frame interleaved
// mid-frame would corrupt the correlation) or fail with a retryable
// *TransportError / context error; never hang, never panic, never deliver
// another caller's payload.
func TestStripedCloseRace(t *testing.T) {
	s := NewServer()
	registerBytes(s, "stripe.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	method := MethodKey("stripe.Echo")

	for iter := 0; iter < 15; iter++ {
		c := NewClient(addr, ClientOptions{NumConns: 4})
		var wg sync.WaitGroup
		var calls atomic.Int64
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				ctx := context.Background()
				for i := 0; ; i++ {
					want := fmt.Sprintf("worker-%d-call-%d-%d", g, iter, i)
					var got string
					var err error
					if i%2 == 0 {
						// Zero-copy path, with a shard key on the wire.
						enc := codec.GetEncoder()
						enc.Reserve(PayloadHeadroom)
						enc.String(want)
						var resp *Response
						resp, err = c.CallFramed(ctx, method, enc.Framed(), CallOptions{Shard: uint64(g + 1)})
						if err == nil {
							got = string(resp.Data())
							resp.Release()
						}
						codec.PutEncoder(enc)
					} else {
						// Unsharded call with a copied-out result.
						var out []byte
						out, err = callBytes(ctx, c, method, []byte(want), CallOptions{})
						got = string(out)
					}
					if err != nil {
						var te *TransportError
						if !errors.As(err, &te) && ctx.Err() == nil {
							t.Errorf("worker %d: non-transport error: %v", g, err)
						}
						return // client closed under us; done
					}
					// The framed payload carries a codec string header; match
					// on the suffix to cover both call shapes.
					if len(got) < len(want) || got[len(got)-len(want):] != want {
						t.Errorf("worker %d: echo corrupted: want suffix %q, got %q", g, want, got)
						return
					}
					calls.Add(1)
				}
			}(g)
		}
		close(start)
		// Let the workers get in flight, then yank the client.
		time.Sleep(time.Duration(iter%4) * time.Millisecond)
		c.Close()
		wg.Wait()
		if iter == 0 && calls.Load() == 0 && testing.Verbose() {
			t.Log("note: close won every race in iter 0 (no completed calls)")
		}
	}
}

// TestStripedConnDeathFailsPending kills the server out from under a
// striped client with calls in flight on every stripe (16 callers on 4
// stripes: three hold a stripe each, the rest share stripe 0): every
// pending call must complete with a retryable *TransportError.
func TestStripedConnDeathFailsPending(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	registerBytes(s, "stripe.Block", func(ctx context.Context, args []byte) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	method := MethodKey("stripe.Block")

	c := NewClient(addr, ClientOptions{NumConns: 4})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = callBytes(context.Background(), c, method, []byte("pending"), CallOptions{Shard: uint64(i + 1)})
		}(i)
	}
	// Wait until every call is registered in some stripe's pending map.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pending int
		c.mu.Lock()
		for _, cc := range c.conns {
			if cc == nil {
				continue
			}
			pending += cc.pendingCount()
		}
		c.mu.Unlock()
		if pending == len(errs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls went pending", pending, len(errs))
		}
		time.Sleep(time.Millisecond)
	}
	s.Close() // conn death on every stripe
	wg.Wait()
	close(block)
	for i, err := range errs {
		if err == nil {
			t.Errorf("call %d: no error after server death", i)
			continue
		}
		var te *TransportError
		if !errors.As(err, &te) {
			t.Errorf("call %d: err = %v, want *TransportError", i, err)
		}
	}
}

// holdServer serves stripe.Hold, whose handler returns once release is
// closed or its request ends.
func holdServer(t *testing.T, release <-chan struct{}) (*Server, string) {
	t.Helper()
	s := NewServer()
	registerBytes(s, "stripe.Hold", func(ctx context.Context, args []byte) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

// startHold starts one stripe.Hold call and returns it in flight.
func startHold(t *testing.T, c *Client) Pending {
	t.Helper()
	p, err := c.Start(context.Background(), MethodKey("stripe.Hold"), make([]byte, PayloadHeadroom), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// inflightCalls sums the client's per-stripe in-flight counts.
func (c *Client) inflightCalls() int {
	n := 0
	for i := range c.inflight {
		n += int(c.inflight[i].Load())
	}
	return n
}

// TestStripeFollowsInflightCalls pins the stripe rule: while fewer calls
// are in flight than there are stripes, a call takes the first stripe with
// none; once there are as many, calls share stripe 0.
func TestStripeFollowsInflightCalls(t *testing.T) {
	release := make(chan struct{})
	s, addr := holdServer(t, release)
	defer s.Close()
	c := NewClient(addr, ClientOptions{NumConns: 3})
	defer c.Close()

	var held []Pending
	expect := func(want int) {
		t.Helper()
		p := startHold(t, c)
		if p.cc.slot != want {
			t.Errorf("call %d went to stripe %d, want %d", len(held), p.cc.slot, want)
		}
		held = append(held, p)
	}
	expect(0)
	expect(1)
	// Retiring stripe 1's only call frees it for the next call.
	held[1].Abandon()
	held = held[:1]
	expect(1)
	expect(2)
	// Every stripe taken: calls share stripe 0.
	expect(0)
	expect(0)
	// Four calls on three stripes: stripe 0 even with stripe 2 free.
	held[2].Abandon()
	held = append(held[:2], held[3:]...)
	expect(0)
	close(release)
	for _, p := range held {
		resp, err := p.Result(<-p.Done())
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if n := c.inflightCalls(); n != 0 {
		t.Errorf("%d calls counted in flight after every result", n)
	}
	// An idle client starts on stripe 0 again.
	p := startHold(t, c)
	p.Abandon()
	if p.cc.slot != 0 {
		t.Errorf("call on an idle client went to stripe %d, want 0", p.cc.slot)
	}
}

// TestStripeCountRetiredOnEveryPath ends calls each way a Pending can be
// retired, and checks that none stays counted against its stripe. The
// nested-call cancel is covered by TestNestedCallEndsWithRequest.
func TestStripeCountRetiredOnEveryPath(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, c *Client, s *Server, release chan struct{})
	}{
		{"Abandon", func(t *testing.T, c *Client, _ *Server, _ chan struct{}) {
			startHold(t, c).Abandon()
		}},
		{"Hedge", func(t *testing.T, c *Client, _ *Server, release chan struct{}) {
			first, second := startHold(t, c), startHold(t, c)
			close(release)
			var resp *Response
			select {
			case resp = <-first.Done():
				second.Abandon()
				resp, _ = first.Result(resp)
			case resp = <-second.Done():
				first.Abandon()
				resp, _ = second.Result(resp)
			}
			if resp != nil {
				resp.Release()
			}
		}},
		{"Cancel", func(t *testing.T, c *Client, _ *Server, _ chan struct{}) {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := callBytes(ctx, c, MethodKey("stripe.Hold"), nil, CallOptions{})
				errc <- err
			}()
			waitFor(t, func() bool { return c.PendingCalls() == 1 })
			cancel()
			if err := <-errc; err != context.Canceled {
				t.Errorf("canceled call returned %v", err)
			}
		}},
		{"ConnDeath", func(t *testing.T, c *Client, s *Server, _ chan struct{}) {
			p := startHold(t, c)
			s.Close()
			if _, err := p.Result(<-p.Done()); err == nil {
				t.Error("call survived its server")
			}
			// A call that cannot reach the server retires at Start.
			if _, err := c.Start(context.Background(), MethodKey("stripe.Hold"), make([]byte, PayloadHeadroom), CallOptions{}); err == nil {
				t.Error("call started against a closed server")
			}
			// So does one whose frame cannot be written.
			broken := NewClient("pipe", ClientOptions{Dialer: func(context.Context, string) (net.Conn, error) {
				cli, srv := net.Pipe()
				srv.Close()
				return cli, nil
			}})
			defer broken.Close()
			if _, err := broken.Start(context.Background(), MethodKey("stripe.Hold"), make([]byte, PayloadHeadroom), CallOptions{}); err == nil {
				t.Error("call started on a conn that cannot be written")
			}
			if n := broken.inflightCalls(); n != 0 {
				t.Errorf("%d failed writes still counted in flight", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			s, addr := holdServer(t, release)
			defer s.Close()
			c := NewClient(addr, ClientOptions{NumConns: 2})
			defer c.Close()
			tc.end(t, c, s, release)
			if n := c.inflightCalls(); n != 0 {
				t.Errorf("%d calls still counted in flight", n)
			}
		})
	}
}
