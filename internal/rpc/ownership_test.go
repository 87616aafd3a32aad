package rpc

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/codec"
)

// These tests pin the data plane's buffer-ownership rules (DESIGN.md §9):
// CallFramed hands back a pooled Response whose payload dies at Release,
// a payload copied out before Release is the caller's to keep, and
// releasing twice is a loud bug.

// startFramedEcho starts a server whose handler echoes through the pooled
// zero-copy path.
func startFramedEcho(t *testing.T) *Client {
	t.Helper()
	s := NewServer()
	s.RegisterFramed("own.Echo", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(ResponseHeadroom)
		enc.Raw(args)
		return enc.Framed(), enc, nil
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
	return c
}

// TestCallResultIsPrivateCopy verifies the copy-on-retain boundary: a
// payload copied out before Release must survive arbitrarily many later
// calls that recycle the pooled read buffers underneath.
func TestCallResultIsPrivateCopy(t *testing.T) {
	c := startFramedEcho(t)
	ctx := context.Background()
	method := MethodKey("own.Echo")

	first, err := callBytes(ctx, c, method, bytes.Repeat([]byte("A"), 64), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the same connection with different payloads of the same size,
	// which reuse (and overwrite) the pooled read buffers.
	for i := 0; i < 50; i++ {
		if _, err := callBytes(ctx, c, method, bytes.Repeat([]byte("B"), 64), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if want := bytes.Repeat([]byte("A"), 64); !bytes.Equal(first, want) {
		t.Errorf("retained Call result was overwritten by later calls: %q", first)
	}
}

// TestCallFramedResponseLifecycle verifies that a Response payload is
// stable until Release even while other calls land on the connection, and
// that a second Release panics instead of silently corrupting the pool.
func TestCallFramedResponseLifecycle(t *testing.T) {
	c := startFramedEcho(t)
	ctx := context.Background()
	method := MethodKey("own.Echo")

	enc := codec.GetEncoder()
	enc.Reserve(PayloadHeadroom)
	enc.Raw(bytes.Repeat([]byte("A"), 64))
	resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
	codec.PutEncoder(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Before Release the payload is owned by this caller: later traffic on
	// the same client must not touch it (each in-flight response has its own
	// pooled buffer).
	for i := 0; i < 10; i++ {
		if _, err := callBytes(ctx, c, method, bytes.Repeat([]byte("B"), 64), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if want := bytes.Repeat([]byte("A"), 64); !bytes.Equal(resp.Data(), want) {
		t.Fatalf("Response payload mutated before Release: %q", resp.Data())
	}

	resp.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	resp.Release()
}

// BenchmarkCallFramed measures the zero-copy client path against a framed
// echo server over real TCP.
func BenchmarkCallFramed(b *testing.B) {
	c := benchClient(b)
	method := MethodKey("own.Echo")
	ctx := context.Background()
	payload := bytes.Repeat([]byte("x"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.GetEncoder()
		enc.Reserve(PayloadHeadroom)
		enc.Raw(payload)
		resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
		codec.PutEncoder(enc)
	}
}

func benchClient(b *testing.B) *Client {
	b.Helper()
	s := NewServer()
	s.RegisterFramed("own.Echo", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(ResponseHeadroom)
		enc.Raw(args)
		return enc.Framed(), enc, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(addr, ClientOptions{})
	b.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c
}
