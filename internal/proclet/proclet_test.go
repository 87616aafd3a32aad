package proclet

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/codegen"
	"repro/internal/envelope"
	"repro/internal/logging"
	"repro/internal/pipe"
	"repro/internal/rpc"
	"repro/internal/tracing"
)

// scriptedManager serves the minimal control plane a proclet needs.
type scriptedManager struct {
	reply   pipe.HostComponents // the ComponentsToHost reply
	lastReg chan pipe.RegisterReplica
	loads   chan pipe.LoadReport
	logs    chan logging.Entry
}

func newScriptedManager(host ...string) *scriptedManager {
	return &scriptedManager{
		reply:   pipe.HostComponents{Components: host},
		lastReg: make(chan pipe.RegisterReplica, 8),
		loads:   make(chan pipe.LoadReport, 1024),
		logs:    make(chan logging.Entry, 1024),
	}
}

func (m *scriptedManager) RegisterReplica(e *envelope.Envelope, r pipe.RegisterReplica) error {
	m.lastReg <- r
	return nil
}
func (m *scriptedManager) ComponentsToHost(*envelope.Envelope) (pipe.HostComponents, error) {
	return m.reply, nil
}
func (m *scriptedManager) StartComponent(*envelope.Envelope, string, bool) error { return nil }
func (m *scriptedManager) LoadReport(e *envelope.Envelope, lr pipe.LoadReport) {
	select {
	case m.loads <- lr:
	default:
	}
}
func (m *scriptedManager) Logs(entries []logging.Entry) {
	for _, e := range entries {
		select {
		case m.logs <- e:
		default:
		}
	}
}
func (m *scriptedManager) Traces([]tracing.Span)                   {}
func (m *scriptedManager) GraphEdges([]callgraph.Edge)             {}
func (m *scriptedManager) ReplicaExited(*envelope.Envelope, error) {}

// quiet is a component with no methods whose Fill logs at every level.
type quiet interface{}

type quietImpl struct{}

func init() {
	codegen.Register(codegen.Registration{
		Name:       "proclet_test/Quiet",
		Iface:      reflect.TypeOf((*quiet)(nil)).Elem(),
		Impl:       reflect.TypeOf(quietImpl{}),
		ClientStub: func(codegen.Conn) any { return quietImpl{} },
	})
}

func noFill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	return nil
}

func TestStartRequiresConn(t *testing.T) {
	_, err := Start(context.Background(), Options{})
	if err == nil || !strings.Contains(err.Error(), "connection") {
		t.Errorf("err = %v", err)
	}
}

func TestStartRegistersWithAddr(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager()
	envelope.Attach("p/0", "p", envConn, mgr)

	p, err := Start(context.Background(), Options{
		Conn:      procConn,
		ProcletID: "p/0",
		Group:     "p",
		Fill:      noFill,
		Logger:    logging.New(logging.Options{Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(nil)

	select {
	case reg := <-mgr.lastReg:
		if reg.Addr != p.Addr() || reg.Addr == "" {
			t.Errorf("registration = %+v (proclet addr %s)", reg, p.Addr())
		}
		if reg.Pid == 0 {
			t.Error("no pid in registration")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proclet never registered")
	}
}

// TestReplyLimitsAdmission checks that the proclet's data-plane server
// takes its admission limits from the manager's ComponentsToHost reply:
// with one execution slot and no wait queue, a second call that arrives
// while the first is running is shed.
func TestReplyLimitsAdmission(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager()
	mgr.reply.MaxInflight, mgr.reply.MaxQueue = 1, 0
	envelope.Attach("p/0", "p", envConn, mgr)
	p, err := Start(context.Background(), Options{
		Conn: procConn, ProcletID: "p/0", Group: "p",
		Fill:   noFill,
		Logger: logging.New(logging.Options{Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(nil)

	started, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	respond := func(ctx context.Context, args []byte) ([]byte, rpc.BufOwner, error) {
		return make([]byte, rpc.ResponseHeadroom), nil, nil
	}
	p.srv.RegisterFramed("limits.Block", func(ctx context.Context, args []byte) ([]byte, rpc.BufOwner, error) {
		started <- struct{}{}
		<-release
		return respond(ctx, args)
	})
	p.srv.RegisterFramed("limits.Fast", respond)

	c := rpc.NewClient(p.Addr(), rpc.ClientOptions{})
	defer c.Close()
	call := func(method string) error {
		resp, err := c.CallFramed(context.Background(), rpc.MethodKey(method), make([]byte, rpc.PayloadHeadroom), rpc.CallOptions{})
		if err == nil {
			resp.Release()
		}
		return err
	}
	go func() { _ = call("limits.Block") }()
	<-started // the one slot is taken
	if err := call("limits.Fast"); !errors.Is(err, rpc.ErrOverloaded) {
		t.Errorf("second concurrent call: err = %v, want rpc.ErrOverloaded", err)
	}
}

// TestShutdownDuringStartLeavesNoServer races a Shutdown push against
// Start: the envelope answers ComponentsToHost and asks the proclet to shut
// down at once, so Shutdown can run before or after Start builds the
// data-plane server from the reply. Either Start fails, or it returns a
// proclet whose server the shutdown closed; no server is left listening.
func TestShutdownDuringStartLeavesNoServer(t *testing.T) {
	for i := 0; i < 100; i++ {
		envConn, procConn, err := pipe.Pair()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				m, err := envConn.Recv()
				if err != nil {
					return
				}
				if m.Kind == pipe.KindComponentsToHost {
					_ = envConn.Ack(m, &pipe.Message{HostComponents: &pipe.HostComponents{MaxInflight: 1}}, nil)
					_ = envConn.Send(&pipe.Message{Kind: pipe.KindShutdown})
				}
			}
		}()
		p, err := Start(context.Background(), Options{
			Conn: procConn, ProcletID: "p/0", Group: "p",
			Fill:   noFill,
			Logger: logging.New(logging.Options{Sink: logging.Discard}),
		})
		if err == nil {
			_ = p.Wait()
			if c, err := net.Dial("tcp", p.Addr()); err == nil {
				c.Close()
				t.Errorf("run %d: the data-plane server still listens after shutdown", i)
			}
		}
		envConn.Close()
	}
}

func TestPeriodicLoadReports(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager()
	envelope.Attach("p/0", "p", envConn, mgr)
	p, err := Start(context.Background(), Options{
		Conn: procConn, ProcletID: "p/0", Group: "p",
		Fill:           noFill,
		ReportInterval: 50 * time.Millisecond,
		Logger:         logging.New(logging.Options{Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(nil)

	for i := 0; i < 2; i++ {
		select {
		case lr := <-mgr.loads:
			if !lr.Healthy {
				t.Error("proclet reported unhealthy")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no load report")
		}
	}
}

func TestShutdownOnPipeClose(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager()
	e := envelope.Attach("p/0", "p", envConn, mgr)
	p, err := Start(context.Background(), Options{
		Conn: procConn, ProcletID: "p/0", Group: "p",
		Fill:   noFill,
		Logger: logging.New(logging.Options{Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The envelope disappears: the proclet must shut itself down (orphan
	// cleanup).
	envConn.Close()
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("orphaned proclet exited without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("orphaned proclet never shut down")
	}
	_ = e
}

func TestGracefulShutdownMessage(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager()
	e := envelope.Attach("p/0", "p", envConn, mgr)
	p, err := Start(context.Background(), Options{
		Conn: procConn, ProcletID: "p/0", Group: "p",
		Fill:   noFill,
		Logger: logging.New(logging.Options{Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}

	go e.Stop(3 * time.Second)
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proclet ignored shutdown")
	}
}

// TestComponentLogsObeyProcletLevel checks that a component's logger drops
// what the proclet's own logger would: entries below its minimum level are
// never shipped to the envelope.
func TestComponentLogsObeyProcletLevel(t *testing.T) {
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	mgr := newScriptedManager("proclet_test/Quiet")
	envelope.Attach("p/0", "p", envConn, mgr)
	p, err := Start(context.Background(), Options{
		Conn: procConn, ProcletID: "p/0", Group: "p",
		Fill: func(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
			logger.Debug("debug")
			logger.Info("info")
			logger.Warn("warn")
			return nil
		},
		ReportInterval: 20 * time.Millisecond,
		Logger:         logging.New(logging.Options{Min: logging.LevelInfo, Sink: logging.Discard}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(nil)

	var got []string
	for len(got) < 2 {
		select {
		case e := <-mgr.logs:
			got = append(got, e.Msg)
		case <-time.After(5 * time.Second):
			t.Fatalf("shipped component logs = %q, want [info warn]", got)
		}
	}
	// Two more report intervals: anything else would have shipped by now.
	time.Sleep(40 * time.Millisecond)
	for len(mgr.logs) > 0 {
		got = append(got, (<-mgr.logs).Msg)
	}
	if strings.Join(got, " ") != "info warn" {
		t.Errorf("shipped component logs = %q, want [info warn]", got)
	}
}
