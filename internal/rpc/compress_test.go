package rpc

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompressRoundTrip(t *testing.T) {
	// Compressible data shrinks and round-trips.
	data := []byte(strings.Repeat("the same words over and over ", 1000))
	small, comp, ok := compress(data)
	if !ok {
		t.Fatal("compressible payload not compressed")
	}
	if len(small) >= len(data) {
		t.Fatalf("compressed %d -> %d", len(data), len(small))
	}
	back, err := decompress(small)
	comp.release()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("round trip mismatch")
	}
}

func TestCompressSkipsIncompressible(t *testing.T) {
	// High-entropy data should be sent raw.
	data := make([]byte, 8192)
	x := uint32(12345)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	if _, comp, ok := compress(data); ok {
		comp.release()
		t.Log("note: PRNG data compressed anyway (acceptable but unexpected)")
	}
}

func TestDecompressGarbage(t *testing.T) {
	// Declared length far beyond the frame limit.
	if _, err := decompress([]byte{0xde, 0xad, 0xbe, 0xef}); err == nil {
		t.Error("garbage inflated")
	}
	// No length prefix at all.
	if _, err := decompress([]byte{0x01}); err == nil {
		t.Error("short payload inflated")
	}
	// Plausible length prefix, garbage flate stream.
	if _, err := decompress([]byte{16, 0, 0, 0, 0xff, 0xfe, 0xfd, 0xfc}); err == nil {
		t.Error("corrupt stream inflated")
	}
}

func TestDecompressLengthMismatch(t *testing.T) {
	// A stream holding more bytes than its declared length is corruption,
	// not a prefix of valid data.
	data := []byte(strings.Repeat("mismatch payload ", 500))
	small, comp, ok := compress(data)
	if !ok {
		t.Fatal("compressible payload not compressed")
	}
	tampered := append([]byte(nil), small...)
	comp.release()
	// Understate the uncompressed length: the stream now runs past it.
	tampered[0], tampered[1], tampered[2], tampered[3] = 16, 0, 0, 0
	if _, err := decompress(tampered); err == nil {
		t.Error("understated length prefix inflated")
	}
}

func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		small, comp, ok := compress(data)
		if !ok {
			return true // sent raw; nothing to verify
		}
		back, err := decompress(small)
		comp.release()
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressedCallEndToEnd(t *testing.T) {
	s := NewServer()
	registerBytes(s, "test.Big", func(ctx context.Context, args []byte) ([]byte, error) {
		// Echo the (decompressed) args back, doubled, so the response also
		// exceeds the compression threshold.
		out := make([]byte, 0, 2*len(args))
		out = append(out, args...)
		out = append(out, args...)
		return out, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(addr, ClientOptions{Compress: true})
	defer c.Close()

	payload := []byte(strings.Repeat("compressible boutique payload ", 500)) // ~15 KB
	got, err := callBytes(context.Background(), c, MethodKey("test.Big"), payload, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*len(payload) || !bytes.Equal(got[:len(payload)], payload) {
		t.Fatalf("response corrupted: %d bytes", len(got))
	}

	// The wire must actually have carried fewer bytes than the logical
	// payload: check the client's tx counter grew by far less than the
	// 15KB payload would imply.
	// (tx_bytes is a process-global counter; compare against a second,
	// uncompressed client.)
	plain := NewClient(addr, ClientOptions{})
	defer plain.Close()
	before := c.txBytes.Value()
	if _, err := callBytes(context.Background(), plain, MethodKey("test.Big"), payload, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	afterPlain := c.txBytes.Value()
	if _, err := callBytes(context.Background(), c, MethodKey("test.Big"), payload, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	afterCompressed := c.txBytes.Value()
	plainBytes := afterPlain - before
	compressedBytes := afterCompressed - afterPlain
	if compressedBytes*2 > plainBytes {
		t.Errorf("compression saved too little: plain=%d compressed=%d", plainBytes, compressedBytes)
	}
}

func TestSmallPayloadsNotCompressed(t *testing.T) {
	s := NewServer()
	registerBytes(s, "test.Echo2", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{Compress: true})
	defer c.Close()
	got, err := callBytes(context.Background(), c, MethodKey("test.Echo2"), []byte("tiny"), CallOptions{})
	if err != nil || string(got) != "tiny" {
		t.Fatalf("small call = %q, %v", got, err)
	}
}
