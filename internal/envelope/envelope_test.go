package envelope

import (
	"context"
	"fmt"
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
	components []string
}

func (f *fakeManager) RegisterReplica(e *Envelope, r pipe.RegisterReplica) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.registered = append(f.registered, r)
	return nil
}

func (f *fakeManager) ComponentsToHost(e *Envelope) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.components, nil
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
	mgr := &fakeManager{components: []string{"app/X"}}
	e := Attach("test/0", "test", envConn, mgr)
	t.Cleanup(func() {
		procConn.Close()
		<-e.Done()
	})
	return mgr, e, procConn
}

func TestRegisterRelayedAndInfoStored(t *testing.T) {
	mgr, e, proc := setup(t)
	err := proc.Send(&pipe.Message{
		Kind: pipe.KindRegisterReplica,
		ID:   1,
		RegisterReplica: &pipe.RegisterReplica{
			ProcletID: "test/0", Group: "test", Addr: "127.0.0.1:1234", Pid: 99,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != pipe.KindAck || ack.ID != 1 || ack.Err != "" {
		t.Fatalf("ack = %+v", ack)
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
	if err := proc.Send(&pipe.Message{Kind: pipe.KindComponentsToHost, ID: 2}); err != nil {
		t.Fatal(err)
	}
	ack, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.HostComponents == nil || len(ack.HostComponents.Components) != 1 || ack.HostComponents.Components[0] != "app/X" {
		t.Errorf("ack = %+v", ack)
	}
}

func TestStartComponentErrorPropagates(t *testing.T) {
	_, _, proc := setup(t)
	if err := proc.Send(&pipe.Message{
		Kind: pipe.KindStartComponent, ID: 3,
		StartComponent: &pipe.StartComponent{Component: "bad"},
	}); err != nil {
		t.Fatal(err)
	}
	ack, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Error("error not propagated in ack")
	}
}

func TestTelemetryForwarded(t *testing.T) {
	mgr, _, proc := setup(t)
	_ = proc.Send(&pipe.Message{Kind: pipe.KindLogBatch, LogBatch: &pipe.LogBatch{
		Entries: []logging.Entry{{Msg: "hello"}},
	}})
	_ = proc.Send(&pipe.Message{Kind: pipe.KindLoadReport, ID: 4, LoadReport: &pipe.LoadReport{CallsPerSec: 7}})
	// LoadReport is acked; wait for it so the log batch has been handled.
	if _, err := proc.Recv(); err != nil {
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
	go func() { hosted <- e.CallHostComponents(context.Background(), []string{"app/Y"}, 3) }()
	m, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != pipe.KindHostComponents || m.ID == 0 || m.HostComponents.Components[0] != "app/Y" || m.HostComponents.Version != 3 {
		t.Errorf("push = %+v", m)
	}
	if err := proc.Send(&pipe.Message{Kind: pipe.KindAck, ID: m.ID}); err != nil {
		t.Fatal(err)
	}
	if err := <-hosted; err != nil {
		t.Fatal(err)
	}

	acked := make(chan struct{})
	if err := e.PushRoutingInfo(pipe.RoutingInfo{Component: "app/Y", Replicas: []string{"a:1"}, Version: 2}, func() { close(acked) }); err != nil {
		t.Fatal(err)
	}
	m, err = proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != pipe.KindRoutingInfo || m.ID == 0 || m.RoutingInfo.Version != 2 {
		t.Errorf("push = %+v", m)
	}
	if err := proc.Send(&pipe.Message{Kind: pipe.KindAck, ID: m.ID}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("PushRoutingInfo's onAck never ran")
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
