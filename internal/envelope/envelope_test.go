package envelope

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/logging"
	"repro/internal/pipe"
	"repro/internal/tracing"
)

// fakeManager records calls for assertions.
type fakeManager struct {
	mu         sync.Mutex
	registered []pipe.RegisterReplica
	started    []string
	loads      []pipe.LoadReport
	logs       []logging.Entry
	exits      []error
	reply      pipe.HostComponents
}

func (f *fakeManager) RegisterReplica(e *Envelope, r pipe.RegisterReplica) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.registered = append(f.registered, r)
	return nil
}

func (f *fakeManager) ComponentsToHost(e *Envelope) (pipe.HostComponents, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reply, nil
}

func (f *fakeManager) StartComponent(e *Envelope, c string, routed bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started = append(f.started, c)
	if c == "bad" {
		return fmt.Errorf("no such component")
	}
	return nil
}

func (f *fakeManager) LoadReport(e *Envelope, lr pipe.LoadReport) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads = append(f.loads, lr)
}

func (f *fakeManager) Logs(entries []logging.Entry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logs = append(f.logs, entries...)
}

func (f *fakeManager) Traces([]tracing.Span)       {}
func (f *fakeManager) GraphEdges([]callgraph.Edge) {}

func (f *fakeManager) ReplicaExited(e *Envelope, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exits = append(f.exits, err)
}

func setup(t *testing.T) (*fakeManager, *Envelope, *pipe.Conn) {
	t.Helper()
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := &fakeManager{reply: pipe.HostComponents{Components: []string{"app/X"}, MaxInflight: 3, MaxQueue: 5}}
	e := Attach("test/0", "test", envConn, mgr)
	t.Cleanup(func() {
		procConn.Close()
		<-e.Done()
	})
	return mgr, e, procConn
}

// readAcks runs proc's reader, which completes proc's requests as their
// acks arrive; nothing else reaches proc in the tests that use it.
func readAcks(proc *pipe.Conn) {
	go func() {
		for {
			if _, err := proc.Recv(); err != nil {
				return
			}
		}
	}()
}

func call(t *testing.T, proc *pipe.Conn, m *pipe.Message) (*pipe.Message, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return proc.Call(ctx, m)
}

func TestRegisterRelayedAndInfoStored(t *testing.T) {
	mgr, e, proc := setup(t)
	readAcks(proc)
	req := &pipe.Message{
		Kind: pipe.KindRegisterReplica,
		RegisterReplica: &pipe.RegisterReplica{
			Addr: "127.0.0.1:1234", Pid: 99,
		},
	}
	ack, err := call(t, proc, req)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != pipe.KindAck || ack.ID != req.ID || ack.ID%2 != 1 || ack.Err != "" {
		t.Fatalf("ack = %+v for request ID %d", ack, req.ID)
	}
	mgr.mu.Lock()
	n := len(mgr.registered)
	mgr.mu.Unlock()
	if n != 1 {
		t.Fatalf("registered = %d", n)
	}
	if e.Addr() != "127.0.0.1:1234" {
		t.Errorf("addr = %q", e.Addr())
	}
	info, ok := e.Info()
	if !ok || info.Pid != 99 {
		t.Errorf("info = %+v, %v", info, ok)
	}
}

func TestComponentsToHostAck(t *testing.T) {
	_, _, proc := setup(t)
	readAcks(proc)
	ack, err := call(t, proc, &pipe.Message{Kind: pipe.KindComponentsToHost})
	if err != nil {
		t.Fatal(err)
	}
	hc := ack.HostComponents
	if hc == nil || len(hc.Components) != 1 || hc.Components[0] != "app/X" {
		t.Fatalf("ack = %+v", ack)
	}
	if hc.MaxInflight != 3 || hc.MaxQueue != 5 {
		t.Errorf("ack limits = %d/%d, want the manager's 3/5", hc.MaxInflight, hc.MaxQueue)
	}
}

func TestStartComponentErrorPropagates(t *testing.T) {
	_, _, proc := setup(t)
	readAcks(proc)
	_, err := call(t, proc, &pipe.Message{
		Kind:           pipe.KindStartComponent,
		StartComponent: &pipe.StartComponent{Component: "bad"},
	})
	if err == nil || !strings.Contains(err.Error(), "no such component") {
		t.Errorf("err = %v, want the manager's error carried by the ack", err)
	}
}

func TestTelemetryForwarded(t *testing.T) {
	mgr, _, proc := setup(t)
	readAcks(proc)
	_ = proc.Send(&pipe.Message{Kind: pipe.KindLogBatch, LogBatch: &pipe.LogBatch{
		Entries: []logging.Entry{{Msg: "hello"}},
	}})
	// LoadReport is acked; wait for it so the log batch has been handled.
	if _, err := call(t, proc, &pipe.Message{Kind: pipe.KindLoadReport, LoadReport: &pipe.LoadReport{CallsPerSec: 7}}); err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if len(mgr.logs) != 1 || mgr.logs[0].Msg != "hello" {
		t.Errorf("logs = %+v", mgr.logs)
	}
	if len(mgr.loads) != 1 || mgr.loads[0].CallsPerSec != 7 {
		t.Errorf("loads = %+v", mgr.loads)
	}
}

func TestPushesReachProclet(t *testing.T) {
	_, e, proc := setup(t)
	hosted := make(chan error, 1)
	e.HostComponents([]string{"app/Y"}, 3, func(err error) { hosted <- err })
	m, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != pipe.KindHostComponents || m.ID == 0 || m.ID%2 != 0 || m.HostComponents.Components[0] != "app/Y" || m.HostComponents.Version != 3 {
		t.Errorf("push = %+v", m)
	}
	if err := proc.Ack(m, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-hosted; err != nil {
		t.Fatal(err)
	}

	acked := make(chan error, 1)
	e.PushRoutingInfo(pipe.RoutingInfo{Component: "app/Y", Replicas: []string{"a:1"}, Version: 2}, func(err error) { acked <- err })
	m, err = proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != pipe.KindRoutingInfo || m.ID == 0 || m.RoutingInfo.Version != 2 {
		t.Errorf("push = %+v", m)
	}
	if err := proc.Ack(m, nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PushRoutingInfo's done never ran")
	}

	// A proclet's error comes back through done, and a proclet that is gone
	// fails what it has not acked.
	stopped := make(chan error, 2)
	e.StopComponent("app/Y", 4, func(err error) { stopped <- err })
	e.Reregister(func(err error) { stopped <- err })
	if m, err = proc.Recv(); err != nil || m.Kind != pipe.KindStopComponent || m.StopComponent.Component != "app/Y" || m.StopComponent.Version != 4 {
		t.Fatalf("push = %+v, %v", m, err)
	}
	if err := proc.Ack(m, nil, fmt.Errorf("still draining")); err != nil {
		t.Fatal(err)
	}
	if err := <-stopped; err == nil || !strings.Contains(err.Error(), "still draining") {
		t.Errorf("StopComponent err = %v, want the proclet's error", err)
	}
	if m, err = proc.Recv(); err != nil || m.Kind != pipe.KindReregister || m.ID == 0 {
		t.Fatalf("push = %+v, %v", m, err)
	}
	proc.Close()
	if err := <-stopped; !errors.Is(err, pipe.ErrClosed) {
		t.Errorf("Reregister err = %v, want pipe.ErrClosed once the proclet is gone", err)
	}
}

func TestExitDetection(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := &fakeManager{}
	e := Attach("x/0", "x", envConn, mgr)
	procConn.Close() // proclet "crashes"
	select {
	case <-e.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never noticed the exit")
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if len(mgr.exits) != 1 || mgr.exits[0] == nil {
		t.Errorf("exits = %+v (crash should carry an error)", mgr.exits)
	}
}

func TestStopIsGraceful(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := &fakeManager{}
	e := Attach("x/0", "x", envConn, mgr)

	// A cooperative proclet: close the pipe when told to shut down.
	go func() {
		for {
			m, err := procConn.Recv()
			if err != nil {
				return
			}
			if m.Kind == pipe.KindShutdown {
				procConn.Close()
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		e.Stop(5 * time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung")
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if len(mgr.exits) != 1 || mgr.exits[0] != nil {
		t.Errorf("exits = %+v (graceful stop should carry nil)", mgr.exits)
	}
}
