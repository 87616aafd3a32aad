// Package pipe implements the control-plane protocol between a proclet and
// its envelope (paper §4.3, Table 1). Proclets inherit two pipe file
// descriptors from the envelope that spawned them and exchange
// length-prefixed messages encoded with the *versioned* tagged codec —
// unlike the data plane, the control plane must keep working while a new
// application version is rolling out next to an old one.
//
// The message vocabulary implements Table 1 and Figure 3:
//
//	proclet → envelope: RegisterReplica, ComponentsToHost (request),
//	                    StartComponent, LoadReport, LogBatch, TraceBatch,
//	                    GraphBatch
//	envelope → proclet: HostComponents, RoutingInfo, StopComponent,
//	                    Reregister, Shutdown
//
// ComponentsToHost is the proclet's first request, and its ack is the
// replica's whole configuration from the manager: the components to host
// and the data-plane admission limits (HostComponents). A replica learns
// no setting from its environment beyond its id and group.
//
// Acks flow in both directions: either side may send a request with
// Message.ID set, and the peer answers with a KindAck carrying the same ID.
// The Conn matches acks to requests for both ends: Request and Call number
// a request (proclets odd, envelopes even, so the two request streams never
// collide on the shared pipe) and keep it pending, Recv consumes every ack
// and completes its request, and a Conn that closes or breaks fails every
// request still pending. Neither the envelope nor the proclet keeps a table
// of its own. Envelope-initiated acked requests (HostComponents,
// RoutingInfo, StopComponent, Reregister) are what make live re-placement
// drain-safe and manager recovery exact: the manager knows when a proclet
// has applied a change, not merely received it.
//
// Each Conn encodes into and reads into one buffer of its own, reused from
// message to message, so a steady stream of load reports costs no buffer
// allocations. Reuse changes no byte on the pipe: a message is its 4-byte
// little-endian length and its tagged encoding, exactly as when each
// message had buffers of its own. A decoded message never aliases the read
// buffer, because the tagged codec copies every string and []byte it
// decodes.
package pipe

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/callgraph"
	"repro/internal/codec/tagged"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/tracing"
)

// Message kinds.
const (
	KindRegisterReplica  = 1  // proclet -> envelope
	KindComponentsToHost = 2  // proclet -> envelope (request; Ack carries HostComponents and the admission limits)
	KindStartComponent   = 3  // proclet -> envelope
	KindLoadReport       = 4  // proclet -> envelope
	KindLogBatch         = 5  // proclet -> envelope
	KindTraceBatch       = 6  // proclet -> envelope
	KindGraphBatch       = 7  // proclet -> envelope
	KindHostComponents   = 8  // envelope -> proclet (push; acked when ID is set)
	KindRoutingInfo      = 9  // envelope -> proclet (push; acked when ID is set)
	KindShutdown         = 10 // envelope -> proclet
	KindAck              = 11 // either direction (reply to ID-carrying requests)
	KindStopComponent    = 12 // envelope -> proclet (request; acked once drained)
	KindReregister       = 13 // envelope -> proclet (request; acked after re-sending RegisterReplica)
)

// Message is the single wire envelope for all control-plane traffic. Kind
// selects which payload field is set (a poor man's oneof).
type Message struct {
	Kind uint32 `tag:"1"`
	// ID correlates a request with its Ack. Zero for unsolicited pushes.
	ID uint64 `tag:"2"`
	// Err carries an error message in an Ack.
	Err string `tag:"3"`

	RegisterReplica *RegisterReplica `tag:"4"`
	StartComponent  *StartComponent  `tag:"5"`
	LoadReport      *LoadReport      `tag:"6"`
	LogBatch        *LogBatch        `tag:"7"`
	TraceBatch      *TraceBatch      `tag:"8"`
	GraphBatch      *GraphBatch      `tag:"9"`
	HostComponents  *HostComponents  `tag:"10"`
	RoutingInfo     *RoutingInfo     `tag:"11"`
	StopComponent   *StopComponent   `tag:"12"`
}

// RegisterReplica announces a proclet as alive and ready (Table 1). The
// envelope that relays it knows the replica's id and group, so the message
// does not repeat them; tags 1, 2 and 5 (id, group, version label) are
// retired and are skipped when an older proclet still sends them.
type RegisterReplica struct {
	Pid int64 `tag:"3"`
	// Addr is the data-plane address on which the proclet serves hosted
	// components.
	Addr string `tag:"4"`

	// The remaining fields let a rebuilt manager recover observed state
	// from re-registration alone (the envelope sends KindReregister after
	// a manager restart, and the proclet answers with a fresh, complete
	// registration before its ack). Hosted lists the components this
	// proclet currently hosts; Routing carries the newest routing epoch it
	// has applied per component; Epoch is the highest routing/placement
	// epoch it has seen anywhere. A recovering manager floors its epoch
	// counter at the maximum reported Epoch so fresh broadcasts are never
	// fenced out as stale.
	Hosted  []string          `tag:"6"`
	Routing map[string]uint64 `tag:"7"`
	Epoch   uint64            `tag:"8"`
}

// StartComponent asks the runtime to ensure a component is started,
// potentially in another process (Table 1).
type StartComponent struct {
	Component string `tag:"1"`
	Routed    bool   `tag:"2"`
}

// HostComponents tells a proclet which components it should host
// (the reply to ComponentsToHost, and pushed when placement changes).
type HostComponents struct {
	Components []string `tag:"1"`
	// Version is the routing epoch of the placement decision behind this
	// push (0 for the initial assignment). A proclet applies a host flip
	// only if it is newer than what it has already applied, so a delayed
	// push can never resurrect hosting that a later move revoked.
	Version uint64 `tag:"2"`
	// MaxInflight and MaxQueue are the replica's data-plane admission
	// limits (rpc.ServerOptions; zero means unlimited). Only the reply to
	// ComponentsToHost carries them: the proclet builds its server from
	// that reply, before it listens, so the limits cannot change later.
	MaxInflight int `tag:"3"`
	MaxQueue    int `tag:"4"`
}

// StopComponent tells a proclet to stop hosting one component: flip local
// callers to the data plane, stop admitting new remote calls for it,
// finish the in-flight ones, and release its handlers. The proclet acks
// once drained; the manager waits for those acks before considering a
// re-placement move complete.
type StopComponent struct {
	Component string `tag:"1"`
	// Version is the routing epoch that moved the component away.
	Version uint64 `tag:"2"`
}

// RoutingInfo tells a proclet how to reach one component's replicas.
type RoutingInfo struct {
	Component string   `tag:"1"`
	Replicas  []string `tag:"2"`
	// Assignment is set for routed components.
	Assignment *routing.Assignment `tag:"3"`
	Version    uint64              `tag:"4"`
}

// LoadReport carries a proclet's health and load, plus metrics snapshots,
// to the manager (Figure 3: collect health and load information; aggregate
// metrics).
type LoadReport struct {
	Healthy     bool    `tag:"1"`
	CallsPerSec float64 `tag:"2"` // served component calls per second
	// Metrics is the proclet's own registry (component.*).
	Metrics []metrics.Snapshot `tag:"3"`
	// Process is the process-global registry (metrics.Default: rpc.*),
	// which every proclet of one OS process shares; the manager merges it
	// once per process, keyed by the Pid the proclet registered with. One
	// proclet per process and report interval fills it; the other reports
	// leave it nil.
	Process []metrics.Snapshot `tag:"4"`
}

// LogBatch ships component log entries to the manager.
type LogBatch struct {
	Entries []logging.Entry `tag:"1"`
}

// TraceBatch ships completed spans to the manager.
type TraceBatch struct {
	Spans []tracing.Span `tag:"1"`
}

// GraphBatch ships call-graph edges to the manager.
type GraphBatch struct {
	Edges []callgraph.Edge `tag:"1"`
}

// maxMessageSize bounds control-plane messages.
const maxMessageSize = 64 << 20

// maxRetainedBuffer bounds the send and receive buffers a Conn keeps
// between messages; a buffer grown past it by a larger message is dropped
// after that message.
const maxRetainedBuffer = 1 << 20

// ErrClosed is wrapped by the error of every request that fails because
// its Conn closed or broke before the peer acked it, and by Send's error
// when the stream refuses a write.
var ErrClosed = errors.New("pipe: connection closed")

// A Conn exchanges Messages over a byte stream (a Unix pipe in production,
// net.Pipe or os.Pipe in tests). Send, Request and Call are safe for
// concurrent use; Recv must be called from a single reader goroutine, which
// also completes the requests (a Call waits on that goroutine).
type Conn struct {
	r io.Reader
	w io.Writer
	c []io.Closer

	wmu  sync.Mutex
	wbuf []byte // guarded by wmu: the length prefix and encoding of one message

	rhdr [4]byte // Recv-owned: the length prefix
	rbuf []byte  // Recv-owned: one message body

	mu      sync.Mutex
	odd     uint64                           // 1 on the proclet end, whose request IDs are odd
	nextID  uint64                           // guarded by mu
	pending map[uint64]func(*Message, error) // guarded by mu: unacked requests by ID
	err     error                            // guarded by mu: why the Conn failed, once it has
}

// NewConn builds a Conn from a reader and writer. Any of them implementing
// io.Closer is closed by Close. Its requests carry envelope (even) IDs.
func NewConn(r io.Reader, w io.Writer) *Conn {
	conn := &Conn{r: r, w: w, pending: map[uint64]func(*Message, error){}}
	if c, ok := r.(io.Closer); ok {
		conn.c = append(conn.c, c)
	}
	if c, ok := w.(io.Closer); ok {
		conn.c = append(conn.c, c)
	}
	return conn
}

// procletEnd makes c number its requests with proclet (odd) IDs.
func procletEnd(c *Conn) *Conn {
	c.odd = 1
	return c
}

// Close fails every pending request and closes the underlying stream(s).
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	var first error
	for _, cl := range c.c {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// retain returns b emptied for reuse, or nil if it is too large to keep.
func retain(b []byte) []byte {
	if cap(b) > maxRetainedBuffer {
		return nil
	}
	return b[:0]
}

// Send writes one message: its length prefix and encoding, built in the
// Conn's send buffer, in a single Write.
func (c *Conn) Send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := tagged.MarshalAppend(append(c.wbuf[:0], 0, 0, 0, 0), m)
	c.wbuf = retain(buf)
	if err != nil {
		return fmt.Errorf("pipe: encoding message kind %d: %w", m.Kind, err)
	}
	n := len(buf) - 4
	if n > maxMessageSize {
		return fmt.Errorf("pipe: message kind %d too large (%d bytes)", m.Kind, n)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return nil
}

// Request sends m as a request, setting m.ID, and calls done exactly once:
// with the peer's ack, or with an error if the peer answered with one, the
// send failed, or the Conn closed or broke first (that error wraps
// ErrClosed). An ack's done runs on the Recv goroutine, so it must not
// block.
func (c *Conn) Request(m *Message, done func(*Message, error)) {
	c.request(m, done)
}

func (c *Conn) request(m *Message, done func(*Message, error)) uint64 {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		done(nil, err)
		return 0
	}
	c.nextID++
	id := c.nextID<<1 | c.odd
	c.pending[id] = done
	c.mu.Unlock()
	m.ID = id
	if err := c.Send(m); err != nil {
		c.complete(id, nil, err)
	}
	return id
}

// Call sends m as a request and waits for its ack (see Request). It
// returns early with ctx's error if ctx ends first.
func (c *Conn) Call(ctx context.Context, m *Message) (*Message, error) {
	type result struct {
		reply *Message
		err   error
	}
	ch := make(chan result, 1)
	id := c.request(m, func(reply *Message, err error) { ch <- result{reply, err} })
	select {
	case r := <-ch:
		return r.reply, r.err
	case <-ctx.Done():
		c.complete(id, nil, ctx.Err())
		return nil, ctx.Err()
	}
}

// Ack answers the request req with reply (nil for an empty ack) and err's
// text. Unsolicited messages (ID 0) get no ack.
func (c *Conn) Ack(req, reply *Message, err error) error {
	if req.ID == 0 {
		return nil
	}
	if reply == nil {
		reply = &Message{}
	}
	reply.Kind = KindAck
	reply.ID = req.ID
	if err != nil {
		reply.Err = err.Error()
	}
	return c.Send(reply)
}

// complete takes request id out of the pending table and runs its done, if
// it is still pending; an ack for an unknown or answered ID is dropped.
func (c *Conn) complete(id uint64, reply *Message, err error) {
	c.mu.Lock()
	done := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if done != nil {
		done(reply, err)
	}
}

// fail marks the Conn failed by cause and fails every pending request.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = cause
		if !errors.Is(cause, ErrClosed) {
			c.err = fmt.Errorf("%w: %w", ErrClosed, cause)
		}
	}
	pending, err := c.pending, c.err
	c.pending = nil
	c.mu.Unlock()
	for _, done := range pending {
		done(nil, err)
	}
}

// Recv returns the next message that is not an ack. Acks complete their
// requests here; an error fails every pending request.
func (c *Conn) Recv() (*Message, error) {
	for {
		m, err := c.recv()
		if err != nil {
			c.fail(err)
			return nil, err
		}
		if m.Kind != KindAck {
			return m, nil
		}
		if m.Err != "" {
			err = errors.New(m.Err)
		}
		c.complete(m.ID, m, err)
	}
}

// recv reads one message into the Conn's receive buffer and decodes it.
func (c *Conn) recv() (*Message, error) {
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.rhdr[:])
	if n > maxMessageSize {
		return nil, fmt.Errorf("pipe: message length %d exceeds limit", n)
	}
	if uint32(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	c.rbuf = retain(buf)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	m := new(Message)
	if err := tagged.Unmarshal(buf, m); err != nil {
		return nil, fmt.Errorf("pipe: decoding message: %w", err)
	}
	return m, nil
}

// Proclet-side file descriptors. The envelope passes its ends of two pipes
// as fds 3 (proclet reads) and 4 (proclet writes) via exec.Cmd.ExtraFiles.
const (
	ProcletReadFD  = 3
	ProcletWriteFD = 4
)

// ProcletConn opens the control-plane connection inherited from the
// envelope. It fails if the process was not spawned by an envelope.
func ProcletConn() (*Conn, error) {
	r := os.NewFile(ProcletReadFD, "weaver-pipe-r")
	w := os.NewFile(ProcletWriteFD, "weaver-pipe-w")
	if r == nil || w == nil {
		return nil, fmt.Errorf("pipe: control-plane file descriptors not inherited")
	}
	return procletEnd(NewConn(r, w)), nil
}

// Pair returns two connected Conns over in-process OS pipes: one for the
// envelope side, one for the proclet side. Used by in-process deployers
// and tests; the byte-level protocol is identical to the subprocess case.
func Pair() (envelope, proclet *Conn, err error) {
	// envelope -> proclet
	epR, epW, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	// proclet -> envelope
	peR, peW, err := os.Pipe()
	if err != nil {
		epR.Close()
		epW.Close()
		return nil, nil, err
	}
	return NewConn(peR, epW), procletEnd(NewConn(epR, peW)), nil
}
