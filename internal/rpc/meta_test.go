package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/tracing"
)

// TestMetaDefaultWireBytesUnchanged pins the compatibility contract: a
// call with default metadata must put exactly the same bytes on the wire
// as before the meta extension existed — fixed header, no extension, no
// new flags.
func TestMetaDefaultWireBytesUnchanged(t *testing.T) {
	h := header{id: 42, method: MethodKey("x.Y"), deadline: 123456, shard: 7}
	var want [headerSize]byte
	binary.LittleEndian.PutUint64(want[0:], 42)
	binary.LittleEndian.PutUint32(want[8:], uint32(MethodKey("x.Y")))
	binary.LittleEndian.PutUint64(want[12:], 123456)
	binary.LittleEndian.PutUint64(want[44:], 7)

	var buf [headerSize + metaExtMax]byte
	n := h.encode(buf[:])
	if n != headerSize {
		t.Fatalf("default meta encoded %d bytes, want %d (no extension)", n, headerSize)
	}
	if !bytes.Equal(buf[:n], want[:]) {
		t.Fatal("default-meta header bytes differ from the fixed header layout")
	}
	if flags := buf[52]; flags&(flagMetaExt|flagHedge|flagSampled) != 0 {
		t.Fatalf("default meta set flags %#x", flags)
	}
}

// TestRequestFrameWrittenInPlace reads the frames a client puts on the
// wire: a default-meta request is the length prefix, the type byte, the
// fixed header laid out byte for byte, then the args; a request with an
// extension carries it between the header and the same args.
func TestRequestFrameWrittenInPlace(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	c := NewClient("pipe", ClientOptions{
		NumConns: 1,
		Dialer:   func(ctx context.Context, addr string) (net.Conn, error) { return cliSide, nil },
	})
	defer c.Close()

	method := MethodKey("frame.Probe")
	args := []byte("in-place args")
	for _, meta := range []CallMeta{{}, {Priority: PriorityHigh, Attempt: 200}} {
		framed := make([]byte, PayloadHeadroom+len(args))
		copy(framed[PayloadHeadroom:], args)
		frames := make(chan []byte, 1)
		go func() {
			frame, err := readFrameInto(srvSide, new([]byte))
			if err != nil {
				t.Error(err)
			}
			frames <- frame
			_, _ = readFrameInto(srvSide, new([]byte)) // the cancel frame
		}()
		p, err := c.Start(context.Background(), method, framed, CallOptions{Shard: 7, Meta: meta})
		if err != nil {
			t.Fatal(err)
		}
		frame := <-frames
		p.Abandon()

		ext := meta.extSize()
		want := []byte{frameRequest}
		want = binary.LittleEndian.AppendUint64(want, 1)
		want = binary.LittleEndian.AppendUint32(want, uint32(method))
		want = append(want, make([]byte, 32)...) // deadline, trace, span, parent
		want = binary.LittleEndian.AppendUint64(want, 7)
		if ext == 0 {
			want = append(want, 0)
		} else {
			want = append(want, flagMetaExt)
			want = binary.AppendUvarint(want, uint64(meta.Priority))
			want = binary.AppendUvarint(want, uint64(meta.Attempt))
		}
		want = append(want, args...)
		if !bytes.Equal(frame, want) {
			t.Fatalf("meta %+v: frame\n% x\nwant\n% x", meta, frame, want)
		}
		if len(frame) != 1+headerSize+ext+len(args) {
			t.Fatalf("meta %+v: frame of %d bytes", meta, len(frame))
		}
		c.nextID.Store(0)
	}
}

// TestMetaExtRoundTrip drives every priority class and a spread of attempt
// ordinals through encode/decode, checking the extension stays
// within its headroom budget and decodes to the same metadata.
func TestMetaExtRoundTrip(t *testing.T) {
	for _, p := range []Priority{PriorityNormal, PriorityLow, PriorityHigh, PriorityCritical} {
		for _, attempt := range []uint8{0, 1, 3, 255} {
			for _, hedge := range []bool{false, true} {
				h := header{
					id:     9,
					method: MethodKey("x.Y"),
					meta:   CallMeta{Priority: p, Attempt: attempt, Hedge: hedge},
				}
				if hedge {
					h.flags |= flagHedge
				}
				var buf [headerSize + metaExtMax]byte
				n := h.encode(buf[:])
				if n > headerSize+metaExtMax {
					t.Fatalf("meta %v/%d overflowed headroom: %d bytes", p, attempt, n)
				}
				if p == PriorityNormal && attempt == 0 && n != headerSize {
					t.Fatalf("zero-valued meta grew the header to %d bytes", n)
				}
				var got header
				m, err := got.decode(buf[:n])
				if err != nil {
					t.Fatalf("decode(%v, %d, hedge=%v): %v", p, attempt, hedge, err)
				}
				if m != n {
					t.Fatalf("decode consumed %d bytes, encoded %d", m, n)
				}
				if got.meta != (CallMeta{Priority: p, Attempt: attempt, Hedge: hedge}) {
					t.Fatalf("meta round trip = %+v, want %v/%d/hedge=%v", got.meta, p, attempt, hedge)
				}
			}
		}
	}
}

// TestMetaExtTruncatedRejected checks that a header advertising an
// extension it does not carry fails to decode instead of reading past the
// buffer or inventing metadata.
func TestMetaExtTruncatedRejected(t *testing.T) {
	h := header{id: 1, method: MethodKey("x.Y"), meta: CallMeta{Priority: PriorityCritical, Attempt: 2}}
	var buf [headerSize + metaExtMax]byte
	n := h.encode(buf[:])
	if n <= headerSize {
		t.Fatal("test needs a non-empty extension")
	}
	var got header
	if _, err := got.decode(buf[:headerSize]); err == nil {
		t.Fatal("decode accepted a header whose advertised extension is missing")
	}
}

// FuzzRequestHeader feeds arbitrary bytes to header.decode as a hostile
// peer would. decode must never panic, must never claim more bytes than it
// was given, and every header it accepts must re-encode through encode and
// decode back to an equal header.
func FuzzRequestHeader(f *testing.F) {
	for _, h := range []header{
		{id: 42, method: MethodKey("x.Y"), deadline: 123456, shard: 7},
		{id: 1, flags: flagSampled | flagAcceptCompressed, trace: 5, span: 6, parent: 7},
		{id: 9, meta: CallMeta{Priority: PriorityCritical, Attempt: 2, Hedge: true}},
		{id: 3, meta: CallMeta{Priority: 200, Attempt: 255}},
	} {
		var buf [headerSize + metaExtMax]byte
		n := h.encode(buf[:])
		f.Add(append([]byte(nil), buf[:n]...))
	}
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, b []byte) {
		var h header
		n, err := h.decode(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		var buf [headerSize + metaExtMax]byte
		m := h.encode(buf[:])
		var got header
		k, err := got.decode(buf[:m])
		if err != nil {
			t.Fatalf("re-encoded header %+v does not decode: %v", h, err)
		}
		if k != m {
			t.Fatalf("decode consumed %d bytes, encode wrote %d", k, m)
		}
		if got != h {
			t.Fatalf("round trip = %+v, want %+v", got, h)
		}
	})
}

// TestMetaVisibleToHandler sends priority, attempt, hedge, and the sampled
// trace bit across a real connection and checks the handler observes them
// in its CallInfo.
func TestMetaVisibleToHandler(t *testing.T) {
	s := NewServer()
	infos := make(chan CallInfo, 1)
	registerBytes(s, "meta.Probe", func(ctx context.Context, args []byte) ([]byte, error) {
		info, _ := InfoFromContext(ctx)
		infos <- info
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	sc := tracing.NewTrace()
	sc.Sampled = true
	meta := CallMeta{Priority: PriorityHigh, Attempt: 2, Hedge: true}
	if _, err := callBytes(context.Background(), c, MethodKey("meta.Probe"), nil,
		CallOptions{Trace: sc, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	info := <-infos
	if info.Meta != meta {
		t.Errorf("handler saw meta %+v, want %+v", info.Meta, meta)
	}
	if info.Trace.Trace != sc.Trace || !info.Trace.Sampled {
		t.Errorf("handler saw trace %+v, want trace id %d with sampled bit", info.Trace, sc.Trace)
	}
}

// TestCallInfoSurvivesWrappedContext pins the reqCtx field contract: the
// handler's own ctx answers InfoFromContext and tracing.FromContext from
// fields, and a ctx the handler derives from it with context.WithCancel or
// context.WithValue still resolves both through Value. An untraced call
// has CallInfo but no span context.
func TestCallInfoSurvivesWrappedContext(t *testing.T) {
	type seen struct {
		info      CallInfo
		infoOK    bool
		trace     tracing.SpanContext
		traceOK   bool
		wrapperOf string
	}
	type otherKey struct{}
	s := NewServer()
	got := make(chan []seen, 1)
	registerBytes(s, "wrap.Probe", func(ctx context.Context, args []byte) ([]byte, error) {
		if _, ok := ctx.(tracing.Carrier); !ok {
			t.Errorf("handler ctx %T is not a tracing.Carrier", ctx)
		}
		cancelCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctxs := []struct {
			name string
			ctx  context.Context
		}{
			{"handler ctx", ctx},
			{"WithCancel", cancelCtx},
			{"WithValue", context.WithValue(ctx, otherKey{}, 1)},
			{"WithValue over WithCancel", context.WithValue(cancelCtx, otherKey{}, 1)},
		}
		var out []seen
		for _, c := range ctxs {
			var v seen
			v.wrapperOf = c.name
			v.info, v.infoOK = InfoFromContext(c.ctx)
			v.trace, v.traceOK = tracing.FromContext(c.ctx)
			out = append(out, v)
		}
		got <- out
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr, ClientOptions{})
	defer c.Close()

	method := MethodKey("wrap.Probe")
	sc := tracing.SpanContext{Trace: 111, Span: 222, Parent: 333, Sampled: true}
	if _, err := callBytes(context.Background(), c, method, nil, CallOptions{Trace: sc, Shard: 9}); err != nil {
		t.Fatal(err)
	}
	for _, v := range <-got {
		if !v.infoOK || v.info.Method != "wrap.Probe" || v.info.Shard != 9 || v.info.Trace != sc {
			t.Errorf("%s: InfoFromContext = %+v, %v", v.wrapperOf, v.info, v.infoOK)
		}
		if !v.traceOK || v.trace != sc {
			t.Errorf("%s: tracing.FromContext = %+v, %v; want %+v", v.wrapperOf, v.trace, v.traceOK, sc)
		}
	}

	if _, err := callBytes(context.Background(), c, method, nil, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range <-got {
		if !v.infoOK || v.info.Method != "wrap.Probe" {
			t.Errorf("untraced %s: InfoFromContext = %+v, %v", v.wrapperOf, v.info, v.infoOK)
		}
		if v.traceOK {
			t.Errorf("untraced %s: tracing.FromContext = %+v, want none", v.wrapperOf, v.trace)
		}
	}
}
