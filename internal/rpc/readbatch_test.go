package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
)

// mkFrame length-prefixes the concatenated chunks into one wire frame.
func mkFrame(chunks ...[]byte) []byte {
	f := make([]byte, 4)
	for _, c := range chunks {
		f = append(f, c...)
	}
	binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// chunkReader returns its chunks one Read at a time (splitting a chunk that
// exceeds the destination), then final (io.EOF if unset). errs[i], when set,
// is returned together with the last bytes of chunk i — the
// data-plus-error Read contract the frameReader must honor.
type chunkReader struct {
	chunks [][]byte
	errs   []error
	final  error
	i      int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.i >= len(c.chunks) {
		if c.final != nil {
			return 0, c.final
		}
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.i])
	if n < len(c.chunks[c.i]) {
		c.chunks[c.i] = c.chunks[c.i][n:]
		return n, nil
	}
	var err error
	if c.errs != nil {
		err = c.errs[c.i]
	}
	c.i++
	return n, err
}

func TestFrameReaderSlicesBatchFromOneRead(t *testing.T) {
	// Three frames arriving in a single Read must come back from three
	// next() calls without further I/O, and the histogram must record one
	// 3-frame batch.
	var batch []byte
	want := [][]byte{[]byte("alpha"), []byte("bee"), []byte("gamma-gamma")}
	for _, p := range want {
		batch = append(batch, mkFrame(p)...)
	}
	hist := metrics.Default.Histogram("test.readbatch.slices", flushBatchBuckets)
	count0, sum0 := hist.Count(), hist.Sum()
	fr := newFrameReader(&chunkReader{chunks: [][]byte{batch}}, hist, nil, nil)
	defer fr.close()

	for i, w := range want {
		got, rb, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d = %q, want %q", i, got, w)
		}
		rb.release()
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after batch: err = %v, want io.EOF", err)
	}
	if c, s := hist.Count()-count0, hist.Sum()-sum0; c != 1 || s != 3 {
		t.Fatalf("histogram recorded %d reads summing %.0f frames, want 1 read of 3 frames", c, s)
	}
}

func TestFrameReaderReassemblesPartialFrames(t *testing.T) {
	// One frame dribbling in over four Reads, split inside the length
	// prefix and inside the payload.
	payload := bytes.Repeat([]byte("xyz"), 100)
	f := mkFrame(payload)
	fr := newFrameReader(&chunkReader{chunks: [][]byte{
		f[:2], f[2:7], f[7:200], f[200:],
	}}, nil, nil, nil)
	defer fr.close()

	got, rb, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(payload))
	}
	rb.release()
}

func TestFrameReaderDrainsFramesArrivingWithEOF(t *testing.T) {
	// A Read may return complete frames together with io.EOF; they must
	// drain before the error surfaces, and the error must stay io.EOF (a
	// clean close), not ErrUnexpectedEOF.
	batch := append(mkFrame([]byte("one")), mkFrame([]byte("two"))...)
	fr := newFrameReader(&chunkReader{
		chunks: [][]byte{batch},
		errs:   []error{io.EOF},
	}, nil, nil, nil)
	defer fr.close()

	for _, want := range []string{"one", "two"} {
		got, rb, err := fr.next()
		if err != nil {
			t.Fatalf("frame %q: %v", want, err)
		}
		if string(got) != want {
			t.Fatalf("frame = %q, want %q", got, want)
		}
		rb.release()
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	full := mkFrame([]byte("complete"))
	partial := mkFrame([]byte("never-finishes"))[:9]
	fr := newFrameReader(&chunkReader{chunks: [][]byte{append(full, partial...)}}, nil, nil, nil)
	defer fr.close()

	got, rb, err := fr.next()
	if err != nil || string(got) != "complete" {
		t.Fatalf("first frame = %q, %v", got, err)
	}
	rb.release()
	if _, _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFrameReaderOversizedFrame(t *testing.T) {
	// A frame bigger than the pooled buffer gets a dedicated buffer;
	// interleave it with pooled-size frames to cross the boundary twice.
	big := bytes.Repeat([]byte{0xAB}, readBufSize+17)
	want := [][]byte{[]byte("before"), big, []byte("after")}
	var stream []byte
	for _, p := range want {
		stream = append(stream, mkFrame(p)...)
	}
	fr := newFrameReader(bytes.NewReader(stream), nil, nil, nil)
	defer fr.close()

	for i, w := range want {
		got, rb, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(w))
		}
		rb.release()
	}
}

func TestFrameReaderRejectsAbsurdLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrameSize+1))
	fr := newFrameReader(bytes.NewReader(hdr[:]), nil, nil, nil)
	defer fr.close()
	if _, _, err := fr.next(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want frame length limit error", err)
	}
}

func TestFrameReaderZeroLengthFrame(t *testing.T) {
	stream := append(mkFrame(nil), mkFrame([]byte("next"))...)
	fr := newFrameReader(bytes.NewReader(stream), nil, nil, nil)
	defer fr.close()
	got, rb, err := fr.next()
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length frame = %q, %v", got, err)
	}
	rb.release()
	got, rb, err = fr.next()
	if err != nil || string(got) != "next" {
		t.Fatalf("frame after zero-length = %q, %v", got, err)
	}
	rb.release()
}

func TestFrameReaderPayloadsOutliveReader(t *testing.T) {
	// Frames sliced from one batch hold references to the shared buffer:
	// closing the reader (conn death) must not invalidate them.
	want := [][]byte{[]byte("held-one"), []byte("held-two")}
	stream := append(mkFrame(want[0]), mkFrame(want[1])...)
	fr := newFrameReader(bytes.NewReader(stream), nil, nil, nil)

	var frames [][]byte
	var bufs []*readBuf
	for range want {
		got, rb, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, got)
		bufs = append(bufs, rb)
	}
	fr.close()
	for i, w := range want {
		if !bytes.Equal(frames[i], w) {
			t.Fatalf("after close, frame %d = %q, want %q", i, frames[i], w)
		}
		bufs[i].release()
	}
}

// TestHedgeLoserRecycledWaiterSlot races canceled callers (hedge losers)
// against in-flight responses while winners immediately reuse pooled waiter
// slots. A verdict crossing slots would hand caller A caller B's payload —
// every successful call asserts it got its own echo — and under -race the
// forget/complete handoff on the recycled channel is checked for
// unsynchronized access.
func TestHedgeLoserRecycledWaiterSlot(t *testing.T) {
	s := NewServer()
	registerBytes(s, "hedge.Echo", func(ctx context.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{NumConns: 1})
	defer c.Close()
	method := MethodKey("hedge.Echo")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 17))
			for i := 0; i < 200; i++ {
				// The loser: canceled at a delay tuned to collide with the
				// response's arrival.
				lctx, cancel := context.WithCancel(context.Background())
				loserPayload := fmt.Sprintf("loser-%d-%d", g, i)
				done := make(chan struct{})
				go func() {
					defer close(done)
					got, err := callBytes(lctx, c, method, []byte(loserPayload), CallOptions{
						Meta: CallMeta{Hedge: true},
					})
					if err == nil && string(got) != loserPayload {
						t.Errorf("hedge loser got %q, want %q", got, loserPayload)
					}
				}()
				time.Sleep(time.Duration(rng.IntN(150)) * time.Microsecond)
				cancel()

				// The winner: issued immediately, likely landing in the
				// loser's just-recycled waiter slot.
				winnerPayload := fmt.Sprintf("winner-%d-%d", g, i)
				got, err := callBytes(context.Background(), c, method, []byte(winnerPayload), CallOptions{})
				if err != nil {
					t.Errorf("hedge winner: %v", err)
				} else if string(got) != winnerPayload {
					t.Errorf("hedge winner got %q, want %q", got, winnerPayload)
				}
				<-done
			}
		}(g)
	}
	wg.Wait()

	// Nothing may be left registered, and the conn must still work.
	cc, err := c.conn(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := cc.pendingCount(); n != 0 {
		t.Errorf("%d calls still registered after the storm", n)
	}
	if got, err := callBytes(context.Background(), c, method, []byte("alive"), CallOptions{}); err != nil || string(got) != "alive" {
		t.Fatalf("call after storm = %q, %v", got, err)
	}
}

// TestConnDeathRacesHalfParsedBatch kills the connection mid-batch: the
// server answers a burst of calls with one segment holding every response
// plus a truncated frame, then closes. Every response sliced from the batch
// must reach its caller and stay valid — the shared read buffer is
// refcounted past both the reader's error path and the conn-death sweep —
// while later calls fail cleanly.
func TestConnDeathRacesHalfParsedBatch(t *testing.T) {
	const calls = 8
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// Concurrent callers race-dial, so accept every conn; the losers of the
	// dial race close theirs immediately and only the installed conn ever
	// carries the requests.
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Collect every request, then answer them all in one segment
				// that ends with a frame whose advertised length never
				// arrives.
				var batch []byte
				for i := 0; i < calls; i++ {
					frame, err := readFrameInto(conn, new([]byte))
					if err != nil {
						return
					}
					if frame[0] != frameRequest || len(frame) < 1+headerSize {
						continue
					}
					id := frame[1:9]
					resp := []byte{frameResponse}
					resp = append(resp, id...)
					resp = append(resp, statusOK)
					resp = append(resp, []byte(fmt.Sprintf("resp-%d", getUint64(id)))...)
					batch = append(batch, mkFrame(resp)...)
				}
				var trunc [4]byte
				binary.LittleEndian.PutUint32(trunc[:], 100)
				batch = append(batch, trunc[:]...)
				batch = append(batch, []byte("only ten b")...)
				_, _ = conn.Write(batch)
			}(conn)
		}
	}()

	c := NewClient(lis.Addr().String(), ClientOptions{NumConns: 1})
	defer c.Close()
	method := MethodKey("batch.Echo")

	var mu sync.Mutex
	resps := make(map[uint64]*Response)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := codec.GetEncoder()
			defer codec.PutEncoder(enc)
			enc.Reserve(PayloadHeadroom)
			enc.Raw([]byte("ask"))
			resp, err := c.CallFramed(context.Background(), method, enc.Framed(), CallOptions{})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			var id uint64
			if _, err := fmt.Sscanf(string(resp.Data()), "resp-%d", &id); err != nil {
				t.Errorf("unparseable response %q", resp.Data())
				resp.Release()
				return
			}
			mu.Lock()
			resps[id] = resp
			mu.Unlock()
		}()
	}
	wg.Wait()

	// The truncated tail kills the conn; a new call must fail (the fake
	// server accepts only once).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := callBytes(ctx, c, method, []byte("late"), CallOptions{}); err == nil {
		t.Error("call after conn death succeeded")
	}

	// Held responses sliced from the half-parsed batch are still intact.
	mu.Lock()
	defer mu.Unlock()
	if len(resps) != calls {
		t.Fatalf("%d responses delivered, want %d", len(resps), calls)
	}
	for id, resp := range resps {
		if want := fmt.Sprintf("resp-%d", id); string(resp.Data()) != want {
			t.Errorf("held response %d = %q, want %q", id, resp.Data(), want)
		}
		resp.Release()
	}
}

// TestDrainRacesWorkerPool races server drain and shutdown against pooled
// workers mid-request: slow handlers occupy pool workers while Drain polls
// and Close stops the pool; dispatch concurrently submits new work. Under
// -race this exercises the pool's idle-stack handoff against stop().
func TestDrainRacesWorkerPool(t *testing.T) {
	for round := 0; round < 5; round++ {
		s := NewServer()
		var started atomic.Int32
		registerBytes(s, "drain.Slow", func(ctx context.Context, args []byte) ([]byte, error) {
			started.Add(1)
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
			}
			return args, nil
		})
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(addr, ClientOptions{NumConns: 2})

		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				// Errors are expected once shutdown wins the race.
				_, _ = callBytes(ctx, c, MethodKey("drain.Slow"), []byte("w"), CallOptions{})
			}(i)
		}
		// Let some handlers get onto pool workers, then drain and close
		// while the rest are still dispatching.
		for started.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
		_ = s.Drain(dctx)
		dcancel()
		s.Close()
		wg.Wait()
		c.Close()
	}
}

// BenchmarkReadBatch measures a loopback call under concurrent callers and
// reports how deep each end batches: frames per flush on the client and on
// the server, frames per client Read syscall, and the read and write
// syscalls per call of the whole process (both ends), from /proc/self/io
// where the file exists. At 1 caller every flush and read carries one
// frame; at 64 group commit coalesces frames into segments the peer drains
// in one Read. Run it at -cpu 1,2: batching that works at one P can
// collapse at two.
func BenchmarkReadBatch(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("Callers%d", callers), func(b *testing.B) {
			s := NewServer()
			s.RegisterFramed("rb.Echo", func(ctx context.Context, args []byte) ([]byte, BufOwner, error) {
				enc := codec.GetEncoder()
				enc.Reserve(ResponseHeadroom)
				enc.Raw(args)
				return enc.Framed(), enc, nil
			})
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			c := NewClient(addr, ClientOptions{})
			defer c.Close()
			method := MethodKey("rb.Echo")
			payload := bytes.Repeat([]byte("x"), 128)

			// Warm the conns so dialing stays out of the measurement.
			if _, err := callBytes(context.Background(), c, method, payload, CallOptions{}); err != nil {
				b.Fatal(err)
			}

			type depth struct {
				h     *metrics.Histogram
				count uint64
				sum   float64
			}
			depths := []*depth{{h: c.flushHist}, {h: s.flushHist}, {h: c.readHist}}
			for _, d := range depths {
				d.count, d.sum = d.h.Count(), d.h.Sum()
			}
			reads0, writes0, procIO := syscallCounts()
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					for next.Add(1) <= int64(b.N) {
						enc := codec.GetEncoder()
						enc.Reserve(PayloadHeadroom)
						enc.Raw(payload)
						resp, err := c.CallFramed(ctx, method, enc.Framed(), CallOptions{})
						if err != nil {
							b.Error(err)
							return
						}
						resp.Release()
						codec.PutEncoder(enc)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			reads1, writes1, _ := syscallCounts()
			for i, unit := range []string{"client-frames/flush", "server-frames/flush", "frames/read"} {
				d := depths[i]
				if n := d.h.Count() - d.count; n > 0 {
					b.ReportMetric((d.h.Sum()-d.sum)/float64(n), unit)
				}
			}
			if procIO {
				b.ReportMetric(float64(writes1-writes0)/float64(b.N), "write-syscalls/call")
				b.ReportMetric(float64(reads1-reads0)/float64(b.N), "read-syscalls/call")
			}
		})
	}
}

// syscallCounts returns the process's read and write syscall counts from
// /proc/self/io (syscr and syscw); ok is false where the file is absent.
func syscallCounts() (reads, writes uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, _ := strings.Cut(line, ": ")
		switch name {
		case "syscr":
			reads, _ = strconv.ParseUint(v, 10, 64)
		case "syscw":
			writes, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return reads, writes, true
}
