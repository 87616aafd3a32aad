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
	// ComponentsToHost returns the reply to e's proclet's first request:
	// the components it should host and its admission limits.
	ComponentsToHost(e *Envelope) (pipe.HostComponents, error)
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

// handle relays one proclet message to the manager and acks it if it is a
// request.
func (e *Envelope) handle(m *pipe.Message) {
	var reply *pipe.Message
	var err error
	switch m.Kind {
	case pipe.KindRegisterReplica:
		if m.RegisterReplica == nil {
			err = fmt.Errorf("malformed RegisterReplica")
			break
		}
		e.mu.Lock()
		e.registered = *m.RegisterReplica
		e.hasInfo = true
		e.mu.Unlock()
		err = e.mgr.RegisterReplica(e, *m.RegisterReplica)

	case pipe.KindComponentsToHost:
		var hc pipe.HostComponents
		hc, err = e.mgr.ComponentsToHost(e)
		reply = &pipe.Message{HostComponents: &hc}

	case pipe.KindStartComponent:
		if m.StartComponent == nil {
			err = fmt.Errorf("malformed StartComponent")
			break
		}
		err = e.mgr.StartComponent(e, m.StartComponent.Component, m.StartComponent.Routed)

	case pipe.KindLoadReport:
		if m.LoadReport != nil {
			e.mgr.LoadReport(e, *m.LoadReport)
		}
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
	_ = e.conn.Ack(m, reply, err)
}

// The requests below are the envelope's half of the manager's actuation
// path (internal/manager/actuator.go, the only caller `make lint` allows):
// each sends one acked request down the pipe and calls done exactly once,
// with nil once the proclet has applied it, or with the proclet's error, or
// with an error wrapping pipe.ErrClosed if the proclet is gone first.
// done may run on the envelope's serve goroutine, so it must not block.

// HostComponents asks the proclet to host components, with the routing
// epoch of the placement decision; it acks once their handlers serve.
func (e *Envelope) HostComponents(components []string, version uint64, done func(error)) {
	e.request(&pipe.Message{
		Kind:           pipe.KindHostComponents,
		HostComponents: &pipe.HostComponents{Components: components, Version: version},
	}, done)
}

// PushRoutingInfo pushes routing information; the proclet acks once it has
// applied it.
func (e *Envelope) PushRoutingInfo(ri pipe.RoutingInfo, done func(error)) {
	e.request(&pipe.Message{Kind: pipe.KindRoutingInfo, RoutingInfo: &ri}, done)
}

// StopComponent asks the proclet to stop hosting a component; it acks once
// the component's in-flight calls have drained and its handlers are
// released.
func (e *Envelope) StopComponent(component string, version uint64, done func(error)) {
	e.request(&pipe.Message{
		Kind:          pipe.KindStopComponent,
		StopComponent: &pipe.StopComponent{Component: component, Version: version},
	}, done)
}

// Reregister asks the proclet to re-send its registration, carrying its
// full observed state (hosted components, applied routing epochs). The
// proclet sends the registration before its ack and the pipe keeps order,
// so done runs after the manager has handled the registration.
func (e *Envelope) Reregister(done func(error)) {
	e.request(&pipe.Message{Kind: pipe.KindReregister}, done)
}

func (e *Envelope) request(m *pipe.Message, done func(error)) {
	e.conn.Request(m, func(_ *pipe.Message, err error) {
		if err != nil {
			err = fmt.Errorf("envelope: proclet %s: %w", e.ID, err)
		}
		done(err)
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
