package rpc

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// rawRequest writes a request frame for method with the given id and args
// over a raw connection.
func rawRequest(t *testing.T, conn net.Conn, id uint64, method MethodID, flags uint8, args []byte) {
	t.Helper()
	hdr := header{id: id, method: method, flags: flags}
	var buf [1 + headerSize]byte
	buf[0] = frameRequest
	hdr.encode(buf[1:])
	if _, err := conn.Write(mkFrame(buf[:], args)); err != nil {
		t.Fatal(err)
	}
}

// rawReadResponse reads frames until a response arrives and returns its id,
// status, and payload.
func rawReadResponse(t *testing.T, conn net.Conn) (id uint64, status byte, data []byte) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		frame, err := readFrameInto(conn, new([]byte))
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if len(frame) >= 10 && frame[0] == frameResponse {
			return getUint64(frame[1:9]), frame[9], frame[10:]
		}
	}
}

func TestCancelAfterResponseIgnored(t *testing.T) {
	_, _, addr := startEcho(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rawRequest(t, conn, 7, MethodKey("test.Echo"), 0, []byte("first"))
	id, status, data := rawReadResponse(t, conn)
	if id != 7 || status != statusOK || string(data) != "first" {
		t.Fatalf("first response = id %d status %d %q", id, status, data)
	}

	// Cancel a request that has already completed; the server must treat it
	// as a no-op, not corrupt connection state.
	var cbuf [9]byte
	cbuf[0] = frameCancel
	putUint64(cbuf[1:], 7)
	if _, err := conn.Write(mkFrame(cbuf[:])); err != nil {
		t.Fatal(err)
	}
	// A cancel for an id never seen must also be harmless.
	putUint64(cbuf[1:], 9999)
	if _, err := conn.Write(mkFrame(cbuf[:])); err != nil {
		t.Fatal(err)
	}

	rawRequest(t, conn, 8, MethodKey("test.Echo"), 0, []byte("second"))
	id, status, data = rawReadResponse(t, conn)
	if id != 8 || status != statusOK || string(data) != "second" {
		t.Fatalf("post-cancel response = id %d status %d %q", id, status, data)
	}
}

func TestConcurrentCancelResponseRace(t *testing.T) {
	// Race client-side cancellation against server responses across many
	// goroutines and timings; under -race this exercises the server's
	// inflight map and the client's pending map for unsynchronized access.
	s := NewServer()
	registerBytes(s, "race.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{NumConns: 2})
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				go func(after time.Duration) {
					time.Sleep(after)
					cancel()
				}(time.Duration((i%7)*20) * time.Microsecond)
				_, _ = callBytes(ctx, c, MethodKey("race.Echo"), []byte("x"), CallOptions{})
				cancel()
			}
		}(g)
	}
	wg.Wait()

	// The connection must still be fully functional.
	got, err := callBytes(context.Background(), c, MethodKey("race.Echo"), []byte("alive"), CallOptions{})
	if err != nil || string(got) != "alive" {
		t.Fatalf("call after cancel storm = %q, %v", got, err)
	}
}

// fakeRawServer accepts connections and lets a per-request handler decide
// the raw bytes (or silence) to send back.
func fakeRawServer(t *testing.T, respond func(conn net.Conn, reqFrame []byte)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					frame, err := readFrameInto(conn, new([]byte))
					if err != nil {
						return
					}
					respond(conn, frame)
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

func TestCorruptCompressedResponse(t *testing.T) {
	// A server that answers every request with statusOKCompressed garbage:
	// the client must surface a decode error, not hang or panic.
	addr := fakeRawServer(t, func(conn net.Conn, reqFrame []byte) {
		if len(reqFrame) < 1+headerSize || reqFrame[0] != frameRequest {
			return
		}
		id := reqFrame[1:9]
		garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
		_, _ = conn.Write(mkFrame([]byte{frameResponse}, id, []byte{statusOKCompressed}, garbage))
	})

	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := callBytes(ctx, c, MethodKey("test.Echo"), []byte("hi"), CallOptions{})
	if err == nil {
		t.Fatal("corrupt compressed response decoded successfully")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
}

func TestCorruptCompressedRequestDropped(t *testing.T) {
	// A request frame claiming a compressed payload that does not inflate
	// must be dropped without killing the connection or the server.
	_, _, addr := startEcho(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rawRequest(t, conn, 1, MethodKey("test.Echo"), flagPayloadCompressed, []byte{0xff, 0xfe, 0xfd})
	rawRequest(t, conn, 2, MethodKey("test.Echo"), 0, []byte("ok"))

	// The only response must be for the valid request.
	id, status, data := rawReadResponse(t, conn)
	if id != 2 || status != statusOK || string(data) != "ok" {
		t.Fatalf("response after corrupt frame = id %d status %d %q, want id 2 ok", id, status, data)
	}
}

func TestPingTimeout(t *testing.T) {
	// A server that accepts but never answers: Ping must give up after the
	// 5 s ping timeout rather than hanging forever. The timer runs on the
	// client's injected fake clock, so the test never waits out the 5 s.
	addr := fakeRawServer(t, func(net.Conn, []byte) {})

	clk := clock.NewFake()
	c := NewClient(addr, ClientOptions{Clock: clk})
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Ping(context.Background()) }()

	// The ping arms its timeout once the ping frame is written.
	armBy := time.Now().Add(5 * time.Second)
	for clk.Waiting() == 0 {
		if time.Now().After(armBy) {
			t.Fatal("ping never armed its timeout")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(5*time.Second - time.Nanosecond)
	if clk.Waiting() != 1 {
		t.Fatal("ping timed out before 5s")
	}
	clk.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ping to mute server succeeded")
		}
		if !strings.Contains(err.Error(), "ping timeout") {
			t.Errorf("err = %v, want ping timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping still waiting after 5s of fake time")
	}
}
