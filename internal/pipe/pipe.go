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
//	envelope → proclet: HostComponents, RoutingInfo, StopComponent, Shutdown
//
// Acks flow in both directions: either side may set Message.ID on a request
// and the peer answers with a KindAck carrying the same ID. Proclets use
// odd IDs and envelopes even ones, so the two request streams can never
// collide on the shared pipe. Envelope-initiated acked requests
// (HostComponents, RoutingInfo, StopComponent) are what make live
// re-placement drain-safe: the manager knows when a proclet has applied a
// placement or routing change, not merely received it.
package pipe

import (
	"encoding/binary"
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
	KindComponentsToHost = 2  // proclet -> envelope (request; Ack carries HostComponents)
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
	KindReregister       = 13 // envelope -> proclet (re-send RegisterReplica after a manager rebuild)
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

// RegisterReplica announces a proclet as alive and ready (Table 1).
type RegisterReplica struct {
	ProcletID string `tag:"1"` // unique replica id, e.g. "cart/2"
	Group     string `tag:"2"` // colocation group this replica belongs to
	Pid       int64  `tag:"3"`
	// Addr is the data-plane address on which the proclet serves hosted
	// components.
	Addr    string `tag:"4"`
	Version string `tag:"5"` // application version, for atomic rollouts

	// The remaining fields let a rebuilt manager recover observed state
	// from re-registration alone (the envelope pushes KindReregister after
	// a manager restart, and the proclet answers with a fresh, complete
	// registration). Hosted lists the components this proclet currently
	// hosts; Routing carries the newest routing epoch it has applied per
	// component; Epoch is the highest routing/placement epoch it has seen
	// anywhere. A recovering manager floors its epoch counter at the
	// maximum reported Epoch so fresh broadcasts are never fenced out as
	// stale.
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
	// once per process, keyed by the Pid the proclet registered with.
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

// A Conn exchanges Messages over a byte stream (a Unix pipe in production,
// net.Pipe or os.Pipe in tests). Send is safe for concurrent use; Recv
// must be called from a single reader goroutine.
type Conn struct {
	r   io.Reader
	w   io.Writer
	wmu sync.Mutex
	c   []io.Closer
}

// NewConn builds a Conn from a reader and writer. Any of them implementing
// io.Closer is closed by Close.
func NewConn(r io.Reader, w io.Writer) *Conn {
	conn := &Conn{r: r, w: w}
	if c, ok := r.(io.Closer); ok {
		conn.c = append(conn.c, c)
	}
	if c, ok := w.(io.Closer); ok {
		conn.c = append(conn.c, c)
	}
	return conn
}

// Close closes the underlying stream(s).
func (c *Conn) Close() error {
	var first error
	for _, cl := range c.c {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Send writes one message.
func (c *Conn) Send(m *Message) error {
	data, err := tagged.Marshal(m)
	if err != nil {
		return fmt.Errorf("pipe: encoding message kind %d: %w", m.Kind, err)
	}
	if len(data) > maxMessageSize {
		return fmt.Errorf("pipe: message kind %d too large (%d bytes)", m.Kind, len(data))
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = c.w.Write(data)
	return err
}

// Recv reads one message.
func (c *Conn) Recv() (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxMessageSize {
		return nil, fmt.Errorf("pipe: message length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	var m Message
	if err := tagged.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("pipe: decoding message: %w", err)
	}
	return &m, nil
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
	return NewConn(r, w), nil
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
	return NewConn(peR, epW), NewConn(epR, peW), nil
}
