package rpc

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/tracing"
)

// TestMetaDefaultWireBytesUnchanged pins the compatibility contract: a
// call with default metadata must put exactly the same bytes on the wire
// as before the meta extension existed — fixed header, no extension, no
// new flags.
func TestMetaDefaultWireBytesUnchanged(t *testing.T) {
	h := header{id: 42, method: MethodKey("x.Y"), deadline: 123456, shard: 7}
	var plain [headerSize]byte
	h.encode(plain[:])

	var ext [headerSize + metaExtMax]byte
	n := h.encodeWithExt(ext[:])
	if n != headerSize {
		t.Fatalf("default meta encoded %d bytes, want %d (no extension)", n, headerSize)
	}
	if !bytes.Equal(ext[:n], plain[:]) {
		t.Fatal("default-meta encodeWithExt bytes differ from the fixed header")
	}
	if h.flags&(flagMetaExt|flagHedge|flagSampled) != 0 {
		t.Fatalf("default meta set flags %#x", h.flags)
	}
}

// TestMetaExtRoundTrip drives every priority class and a spread of attempt
// ordinals through encodeWithExt/decode, checking the extension stays
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
				n := h.encodeWithExt(buf[:])
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
	n := h.encodeWithExt(buf[:])
	if n <= headerSize {
		t.Fatal("test needs a non-empty extension")
	}
	var got header
	if _, err := got.decode(buf[:headerSize]); err == nil {
		t.Fatal("decode accepted a header whose advertised extension is missing")
	}
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
