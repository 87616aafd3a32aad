package rpc

import (
	"context"
	"errors"
	"fmt"
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
						// Zero-copy path with shard affinity: frames from one
						// worker stick to one stripe.
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
						// Unsharded call with a copied-out result, round-robin
						// across stripes.
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
// striped client with calls in flight: every pending call must complete
// with a retryable *TransportError (or honest success), and a fresh client
// against a restarted server on the same address must work — the stripe
// set reconnects as one logical replica.
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
