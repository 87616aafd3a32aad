// Package rpc implements the weaver data plane: a custom remote procedure
// call protocol built directly on top of TCP (paper §6.1).
//
// Because application rollouts are atomic, the two ends of every connection
// are the exact same binary. The protocol exploits this: methods are
// identified by a 4-byte hash of their full name computed independently on
// both sides (no negotiation, no schema exchange, no string method names on
// the wire), and argument payloads use the unversioned internal/codec
// format. A request header costs a fixed few dozen bytes versus the
// hundreds of bytes of headers a general-purpose HTTP-based RPC spends.
//
// Framing: every frame is a 4-byte little-endian payload length followed by
// the payload. The first payload byte is the frame type.
//
//	request:  id, method hash, deadline, span context (trace id, span id,
//	          parent span id), shard, flags, optional meta extension
//	          (priority class + attempt ordinal as uvarints, present only
//	          when flagMetaExt is set), args
//	response: id, status, payload (result bytes or error text)
//	cancel:   id
//	ping:     nonce     (liveness probes, answered with pong)
//	pong:     nonce
//
// Per-call metadata that is almost always default — hedge marker, sampled
// bit, priority, attempt number — rides the flags byte and the optional
// meta extension, so the common call pays zero extra bytes and zero extra
// allocations for it.
//
// Connections are multiplexed: many in-flight calls share one TCP
// connection, correlated by id. Cancellation propagates with an explicit
// cancel frame so servers stop wasted work promptly.
//
// Both directions batch their syscalls. Writes go through a coalescing
// flusher (connFlusher) that rides concurrent frames on one vectored
// write; reads mirror it with a frameReader that issues one large Read
// into a pooled buffer and slices out every complete frame that arrived,
// so a deep batch of coalesced frames costs one syscall to send and one
// to receive. The rpc.{client,server}.read_batch_frames histograms record
// the read-side batch depths.
package rpc

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Frame types.
const (
	frameRequest  = 1
	frameResponse = 2
	frameCancel   = 3
	framePing     = 4
	framePong     = 5
)

// Response status codes.
const (
	statusOK           = 0 // payload is the method result encoding
	statusError        = 1 // payload is a transport/dispatch error message
	statusOKCompressed = 2 // payload is a flate-compressed result encoding
	statusOverloaded   = 3 // request shed by admission control; never executed
	statusUnavailable  = 4 // method handler draining/unregistered; never executed
)

// maxFrameSize bounds a single frame to defend against corrupt length
// prefixes. 512 MiB comfortably exceeds any realistic component payload.
const maxFrameSize = 512 << 20

// PayloadHeadroom is the scratch space a caller must reserve at the front
// of a request buffer passed to Client.CallFramed: the 4-byte length
// prefix, the frame type byte, the fixed request header, and room for a
// fully populated meta extension. The transport fills the headroom in
// place — right-aligned, so a call with default metadata leaves the first
// metaExtMax bytes unused rather than shifting the payload — and writes
// the buffer with a single Write, so an encoded payload travels from
// codec to wire without being copied.
const PayloadHeadroom = 4 + 1 + headerSize + metaExtMax

// ResponseHeadroom is the scratch space a FramedHandler must reserve at
// the front of its result buffer: the 4-byte length prefix, the frame type
// byte, the 8-byte request id, and the status byte.
const ResponseHeadroom = 4 + 1 + 8 + 1

// MethodID identifies a component method on the wire.
type MethodID uint32

// MethodKey hashes a fully-qualified method name ("pkg.Component.Method")
// to its wire identifier. Both ends of a connection run the same binary, so
// both compute identical IDs without any negotiation; the handler registry
// rejects colliding names at registration time.
func MethodKey(fullName string) MethodID {
	return MethodID(fnv1a(fnvOffset32, fullName))
}

// ComponentMethodKey returns MethodKey(component + "." + method) without
// building the string: the data plane computes it on every call.
func ComponentMethodKey(component, method string) MethodID {
	h := fnv1a(fnvOffset32, component)
	h = (h ^ '.') * fnvPrime32
	return MethodID(fnv1a(h, method))
}

// 32-bit FNV-1a, as hash/fnv computes it, inlined so hashing a method
// name neither allocates nor converts the string.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// header is the fixed-size portion of a request frame, following the type
// byte. All fields are little-endian. When flagMetaExt is set in flags, a
// variable-length meta extension (see CallMeta) follows the fixed header;
// args begin after it.
//
//	offset size field
//	0      8    request id
//	8      4    method id
//	12     8    deadline (unix nanos, 0 = none)
//	20     8    trace id
//	28     8    span id
//	36     8    parent span id
//	44     8    shard key (routing affinity; 0 = unrouted)
//	52     1    flags
//	53     0-4  meta extension: uvarint priority, uvarint attempt
//	            (present only when flagMetaExt is set)
const headerSize = 53

// header flag bits.
const (
	// flagAcceptCompressed tells the server the caller will decompress a
	// statusOKCompressed response (§5.1: "for network bottlenecked
	// applications ... the runtime may decide to compress messages on the
	// wire").
	flagAcceptCompressed = 1 << 0
	// flagPayloadCompressed marks the request payload itself as
	// flate-compressed.
	flagPayloadCompressed = 1 << 1
	// flagHedge marks this request as a hedged duplicate of an outstanding
	// first attempt; admission may drop queued hedges first.
	flagHedge = 1 << 2
	// flagSampled carries the root tracer's sampling decision, so every
	// hop of a multi-process trace records spans iff the root did.
	flagSampled = 1 << 3
	// flagMetaExt marks the presence of the variable meta extension
	// (priority, attempt) after the fixed header.
	flagMetaExt = 1 << 4
)

type header struct {
	id       uint64
	method   MethodID
	deadline int64
	trace    uint64
	span     uint64
	parent   uint64
	shard    uint64
	flags    uint8
	meta     CallMeta
}

// encode writes the fixed 53-byte header. Callers sending non-default
// meta use encodeWithExt instead; plain encode is the default-meta fast
// path (h.flags must not claim an extension that is not written).
func (h *header) encode(b []byte) {
	_ = b[headerSize-1]
	binary.LittleEndian.PutUint64(b[0:], h.id)
	binary.LittleEndian.PutUint32(b[8:], uint32(h.method))
	binary.LittleEndian.PutUint64(b[12:], uint64(h.deadline))
	binary.LittleEndian.PutUint64(b[20:], h.trace)
	binary.LittleEndian.PutUint64(b[28:], h.span)
	binary.LittleEndian.PutUint64(b[36:], h.parent)
	binary.LittleEndian.PutUint64(b[44:], h.shard)
	b[52] = h.flags
}

// encodeWithExt writes the fixed header followed by the meta extension
// when h.meta has non-default priority or attempt, setting flagMetaExt
// accordingly. It returns the total bytes written (headerSize when the
// extension is empty). b must have room for headerSize+metaExtMax bytes.
func (h *header) encodeWithExt(b []byte) int {
	ext := h.meta.extSize()
	if ext > 0 {
		h.flags |= flagMetaExt
	}
	h.encode(b)
	if ext > 0 {
		h.meta.encodeExt(b[headerSize:])
	}
	return headerSize + ext
}

// decode parses the fixed header and, when flagMetaExt is set, the meta
// extension. It returns the total header bytes consumed — the offset at
// which the args payload begins.
func (h *header) decode(b []byte) (int, error) {
	if len(b) < headerSize {
		return 0, fmt.Errorf("rpc: short request header: %d bytes", len(b))
	}
	h.id = binary.LittleEndian.Uint64(b[0:])
	h.method = MethodID(binary.LittleEndian.Uint32(b[8:]))
	h.deadline = int64(binary.LittleEndian.Uint64(b[12:]))
	h.trace = binary.LittleEndian.Uint64(b[20:])
	h.span = binary.LittleEndian.Uint64(b[28:])
	h.parent = binary.LittleEndian.Uint64(b[36:])
	h.shard = binary.LittleEndian.Uint64(b[44:])
	h.flags = b[52]
	h.meta = CallMeta{Hedge: h.flags&flagHedge != 0}
	n := headerSize
	if h.flags&flagMetaExt != 0 {
		k, err := h.meta.decodeExt(b[headerSize:])
		if err != nil {
			return 0, err
		}
		n += k
	}
	return n, nil
}

// A frameBuf is a pooled scratch buffer used for frame assembly and frame
// reads, so the steady-state data plane neither allocates nor copies into
// fresh buffers per frame.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrame caps the buffer capacity the frame pool retains, so one
// huge payload does not pin megabytes for the life of the process.
const maxPooledFrame = 256 << 10

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrame(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		fb.b = nil
	}
	framePool.Put(fb)
}

// vectoredThreshold is the frame size above which a frame's payload skips
// the pooled assembly scratch and rides the flusher's vectored write
// (writev on TCP) as a separate buffer, so the payload bytes are never
// copied.
const vectoredThreshold = 64 << 10
