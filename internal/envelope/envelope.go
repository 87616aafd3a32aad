// Package envelope implements the envelope process wrapper from the
// paper's deployer architecture (Figure 3). An envelope is the parent of
// one proclet: it spawns the application binary as a subprocess (or
// attaches to an in-process proclet in tests), relays the proclet's
// control-plane API calls to the global manager, and pushes placement and
// routing decisions back down the pipe.
package envelope

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/callgraph"
	"repro/internal/logging"
	"repro/internal/pipe"
	"repro/internal/tracing"
)

// Manager is the subset of the global manager the envelope relays proclet
// API calls to (paper Table 1 plus telemetry).
type Manager interface {
	// RegisterReplica records a proclet as alive and ready.
	RegisterReplica(e *Envelope, r pipe.RegisterReplica) error
	// ComponentsToHost returns the components e's proclet should host.
	ComponentsToHost(e *Envelope) ([]string, error)
	// StartComponent ensures a component is started somewhere and that
	// routing info will be pushed to e.
	StartComponent(e *Envelope, component string, routed bool) error
	// LoadReport ingests a health/load report from e.
	LoadReport(e *Envelope, lr pipe.LoadReport)
	// Telemetry sinks.
	Logs(entries []logging.Entry)
	Traces(spans []tracing.Span)
	GraphEdges(edges []callgraph.Edge)
	// ReplicaExited reports that e's proclet is gone.
	ReplicaExited(e *Envelope, err error)
}

// Envelope supervises one proclet.
type Envelope struct {
	ID    string
	Group string

	conn *pipe.Conn
	cmd  *exec.Cmd // nil for in-process proclets
	mgr  Manager

	mu         sync.Mutex
	registered pipe.RegisterReplica
	hasInfo    bool

	// Envelope-initiated requests (live re-placement, acked routing
	// pushes): acks holds, per outstanding request ID, either a reply
	// channel (Call) or a callback (PushRoutingInfo). Envelope IDs are
	// even, proclet IDs odd, so the two request streams never collide on
	// the pipe.
	acks   sync.Map // uint64 -> chan *pipe.Message | func(*pipe.Message)
	nextID atomic.Uint64

	stopping atomic.Bool
	done     chan struct{}
}

// SpawnOptions configures a subprocess proclet.
type SpawnOptions struct {
	// Binary and Args name the application executable. The envelope always
	// re-executes the same application binary; which components the child
	// actually runs is decided by the manager, not by the command line.
	Binary string
	Args   []string
	// Env entries (KEY=VALUE) appended to the child environment.
	Env []string
	// ID and Group identify the replica.
	ID, Group string
	// Version is the application version of this rollout.
	Version string
}

// Spawn launches the application binary as a proclet subprocess wired to a
// new envelope. The child inherits the control-plane pipe on fds 3 and 4
// and discovers proclet mode via the WEAVER_PROCLET environment variable.
func Spawn(ctx context.Context, opts SpawnOptions, mgr Manager) (*Envelope, error) {
	// envelope -> proclet pipe
	epR, epW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	// proclet -> envelope pipe
	peR, peW, err := os.Pipe()
	if err != nil {
		epR.Close()
		epW.Close()
		return nil, err
	}

	cmd := exec.CommandContext(ctx, opts.Binary, opts.Args...)
	cmd.Env = append(os.Environ(),
		"WEAVER_PROCLET=1",
		"WEAVER_REPLICA="+opts.ID,
		"WEAVER_GROUP="+opts.Group,
		"WEAVER_VERSION="+opts.Version,
	)
	cmd.Env = append(cmd.Env, opts.Env...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{epR, peW} // fds 3 (read) and 4 (write) in the child
	cmd.Cancel = func() error { return cmd.Process.Kill() }

	if err := cmd.Start(); err != nil {
		for _, f := range []*os.File{epR, epW, peR, peW} {
			f.Close()
		}
		return nil, fmt.Errorf("envelope: spawning %s: %w", opts.Binary, err)
	}
	// Close the child's ends in the parent.
	epR.Close()
	peW.Close()

	e := &Envelope{
		ID:    opts.ID,
		Group: opts.Group,
		conn:  pipe.NewConn(peR, epW),
		cmd:   cmd,
		mgr:   mgr,
		done:  make(chan struct{}),
	}
	go e.serve()
	go e.reap()
	return e, nil
}

// Attach wires an envelope to an in-process proclet over conn. Used by the
// in-process deployer and tests; the protocol is identical to Spawn's.
func Attach(id, group string, conn *pipe.Conn, mgr Manager) *Envelope {
	e := &Envelope{
		ID:    id,
		Group: group,
		conn:  conn,
		mgr:   mgr,
		done:  make(chan struct{}),
	}
	go e.serve()
	return e
}

// Info returns the proclet's registration, if it has registered.
func (e *Envelope) Info() (pipe.RegisterReplica, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registered, e.hasInfo
}

// Addr returns the proclet's data-plane address ("" before registration).
func (e *Envelope) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registered.Addr
}

// Pid returns the subprocess pid, or 0 for in-process proclets.
func (e *Envelope) Pid() int {
	if e.cmd == nil || e.cmd.Process == nil {
		return 0
	}
	return e.cmd.Process.Pid
}

// Done is closed when the proclet connection has terminated.
func (e *Envelope) Done() <-chan struct{} { return e.done }

// serve relays proclet messages to the manager until the pipe breaks.
func (e *Envelope) serve() {
	defer close(e.done)
	for {
		m, err := e.conn.Recv()
		if err != nil {
			deliberate := e.stopping.Load()
			if deliberate {
				e.mgr.ReplicaExited(e, nil)
			} else {
				e.mgr.ReplicaExited(e, fmt.Errorf("envelope: proclet %s pipe closed: %v", e.ID, err))
			}
			return
		}
		e.handle(m)
	}
}

func (e *Envelope) handle(m *pipe.Message) {
	ack := func(reply *pipe.Message, err error) {
		if m.ID == 0 {
			return
		}
		if reply == nil {
			reply = &pipe.Message{}
		}
		reply.Kind = pipe.KindAck
		reply.ID = m.ID
		if err != nil {
			reply.Err = err.Error()
		}
		_ = e.conn.Send(reply)
	}

	switch m.Kind {
	case pipe.KindAck:
		// Reply to an envelope-initiated request (Call or PushRoutingInfo).
		if v, ok := e.acks.Load(m.ID); ok {
			switch h := v.(type) {
			case chan *pipe.Message:
				h <- m
			case func(*pipe.Message):
				e.acks.Delete(m.ID)
				h(m)
			}
		}

	case pipe.KindRegisterReplica:
		if m.RegisterReplica == nil {
			ack(nil, fmt.Errorf("malformed RegisterReplica"))
			return
		}
		e.mu.Lock()
		e.registered = *m.RegisterReplica
		e.hasInfo = true
		e.mu.Unlock()
		ack(nil, e.mgr.RegisterReplica(e, *m.RegisterReplica))

	case pipe.KindComponentsToHost:
		components, err := e.mgr.ComponentsToHost(e)
		ack(&pipe.Message{HostComponents: &pipe.HostComponents{Components: components}}, err)

	case pipe.KindStartComponent:
		if m.StartComponent == nil {
			ack(nil, fmt.Errorf("malformed StartComponent"))
			return
		}
		ack(nil, e.mgr.StartComponent(e, m.StartComponent.Component, m.StartComponent.Routed))

	case pipe.KindLoadReport:
		if m.LoadReport != nil {
			e.mgr.LoadReport(e, *m.LoadReport)
		}
		ack(nil, nil)

	case pipe.KindLogBatch:
		if m.LogBatch != nil {
			e.mgr.Logs(m.LogBatch.Entries)
		}
	case pipe.KindTraceBatch:
		if m.TraceBatch != nil {
			e.mgr.Traces(m.TraceBatch.Spans)
		}
	case pipe.KindGraphBatch:
		if m.GraphBatch != nil {
			e.mgr.GraphEdges(m.GraphBatch.Edges)
		}
	}
}

// PushRoutingInfo pushes routing information with an ack callback: onAck
// runs (on the envelope's serve goroutine) once the proclet has applied
// the push. It is the observed-state feedback path — the manager records
// each replica's applied routing epoch from these acks. If the proclet
// dies before acking, the callback never runs; a dead proclet holds no
// routes worth tracking.
func (e *Envelope) PushRoutingInfo(ri pipe.RoutingInfo, onAck func()) error {
	id := e.nextID.Add(1) << 1 // even, nonzero
	e.acks.Store(id, func(m *pipe.Message) {
		if m.Err == "" {
			onAck()
		}
	})
	if err := e.conn.Send(&pipe.Message{Kind: pipe.KindRoutingInfo, RoutingInfo: &ri, ID: id}); err != nil {
		e.acks.Delete(id)
		return err
	}
	return nil
}

// Reregister asks the proclet to re-send its registration, carrying its
// full observed state (hosted components, applied routing epochs). A
// rebuilt manager sends this to every adopted envelope to recover control
// state it no longer has.
func (e *Envelope) Reregister() error {
	return e.conn.Send(&pipe.Message{Kind: pipe.KindReregister})
}

// Call sends an envelope-initiated request down the pipe and waits for the
// proclet's ack. The manager's re-placement protocol uses it for the
// operations whose *completion* matters: hosting a component on a new
// group, applying a routing epoch, and draining a stopped component.
func (e *Envelope) Call(ctx context.Context, m *pipe.Message) error {
	id := e.nextID.Add(1) << 1 // even, nonzero
	m.ID = id
	ch := make(chan *pipe.Message, 1)
	e.acks.Store(id, ch)
	defer e.acks.Delete(id)
	if err := e.conn.Send(m); err != nil {
		return err
	}
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return fmt.Errorf("envelope: proclet %s: %s", e.ID, reply.Err)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.done:
		return fmt.Errorf("envelope: proclet %s is gone", e.ID)
	}
}

// CallHostComponents asks the proclet to host components (with the routing
// epoch of the placement decision) and waits until their handlers serve.
func (e *Envelope) CallHostComponents(ctx context.Context, components []string, version uint64) error {
	return e.Call(ctx, &pipe.Message{
		Kind:           pipe.KindHostComponents,
		HostComponents: &pipe.HostComponents{Components: components, Version: version},
	})
}

// CallRoutingInfo pushes routing information and waits until the proclet
// has applied it.
func (e *Envelope) CallRoutingInfo(ctx context.Context, ri pipe.RoutingInfo) error {
	return e.Call(ctx, &pipe.Message{Kind: pipe.KindRoutingInfo, RoutingInfo: &ri})
}

// CallStopComponent asks the proclet to stop hosting a component and waits
// until its in-flight calls have drained and its handlers are released.
func (e *Envelope) CallStopComponent(ctx context.Context, component string, version uint64) error {
	return e.Call(ctx, &pipe.Message{
		Kind:          pipe.KindStopComponent,
		StopComponent: &pipe.StopComponent{Component: component, Version: version},
	})
}

// Stop asks the proclet to shut down gracefully, then — for subprocesses —
// kills it after the grace period. It returns once the proclet is gone.
func (e *Envelope) Stop(grace time.Duration) {
	e.stopping.Store(true)
	_ = e.conn.Send(&pipe.Message{Kind: pipe.KindShutdown})
	select {
	case <-e.done:
	case <-time.After(grace):
		if e.cmd != nil && e.cmd.Process != nil {
			_ = e.cmd.Process.Kill()
		}
		e.conn.Close()
		<-e.done
	}
}

// Kill forcibly terminates the proclet without a graceful shutdown. Used
// by chaos tests to simulate crashes.
func (e *Envelope) Kill() {
	if e.cmd != nil && e.cmd.Process != nil {
		_ = e.cmd.Process.Signal(syscall.SIGKILL)
	}
	e.conn.Close()
}

// reap waits for the subprocess so it does not become a zombie.
func (e *Envelope) reap() {
	if e.cmd != nil {
		_ = e.cmd.Wait()
	}
}
