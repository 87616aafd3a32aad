package pipe

import (
	"io"
	"sync"
	"testing"

	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/routing"
)

func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	env, proc, err := Pair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		env.Close()
		proc.Close()
	})
	return env, proc
}

func TestRegisterReplicaRoundTrip(t *testing.T) {
	env, proc, _ := Pair()
	defer env.Close()
	defer proc.Close()

	want := &Message{
		Kind: KindRegisterReplica,
		ID:   7,
		RegisterReplica: &RegisterReplica{
			ProcletID: "cart/2",
			Group:     "cart",
			Pid:       1234,
			Addr:      "127.0.0.1:9999",
			Version:   "v3",
		},
	}
	go func() { _ = proc.Send(want) }()
	got, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRegisterReplica || got.ID != 7 {
		t.Errorf("got %+v", got)
	}
	gr, wr := got.RegisterReplica, want.RegisterReplica
	if gr.ProcletID != wr.ProcletID || gr.Group != wr.Group || gr.Pid != wr.Pid ||
		gr.Addr != wr.Addr || gr.Version != wr.Version {
		t.Errorf("payload = %+v", got.RegisterReplica)
	}
}

func TestRegisterReplicaRecoveryFields(t *testing.T) {
	env, proc := pair(t)
	go func() {
		_ = proc.Send(&Message{
			Kind: KindRegisterReplica,
			RegisterReplica: &RegisterReplica{
				ProcletID: "cart/2",
				Group:     "cart",
				Hosted:    []string{"app/Cart", "app/Checkout"},
				Routing:   map[string]uint64{"app/Cart": 7, "app/Pay": 12},
				Epoch:     12,
			},
		})
	}()
	got, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r := got.RegisterReplica
	if r == nil || len(r.Hosted) != 2 || r.Hosted[0] != "app/Cart" {
		t.Fatalf("hosted = %+v", r)
	}
	if r.Epoch != 12 || r.Routing["app/Pay"] != 12 || r.Routing["app/Cart"] != 7 {
		t.Errorf("recovery fields = %+v", r)
	}
}

func TestRoutingInfoWithAssignment(t *testing.T) {
	env, proc := pair(t)
	a := routing.EqualSlices(3, []string{"x:1", "y:2"}, 2)
	go func() {
		_ = env.Send(&Message{
			Kind: KindRoutingInfo,
			RoutingInfo: &RoutingInfo{
				Component:  "app/Cart",
				Replicas:   []string{"x:1", "y:2"},
				Assignment: &a,
				Version:    3,
			},
		})
	}()
	got, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ri := got.RoutingInfo
	if ri == nil || ri.Component != "app/Cart" || len(ri.Replicas) != 2 {
		t.Fatalf("got %+v", got)
	}
	if ri.Assignment == nil || len(ri.Assignment.Slices) != len(a.Slices) {
		t.Errorf("assignment = %+v", ri.Assignment)
	}
	if err := ri.Assignment.Validate(); err != nil {
		t.Errorf("assignment invalid after transit: %v", err)
	}
}

func TestTelemetryBatches(t *testing.T) {
	env, proc := pair(t)
	go func() {
		_ = proc.Send(&Message{Kind: KindLogBatch, LogBatch: &LogBatch{
			Entries: []logging.Entry{{TimeNanos: 1, Level: 1, Component: "C", Msg: "m", Attrs: []string{"k", "v"}}},
		}})
		_ = proc.Send(&Message{Kind: KindLoadReport, LoadReport: &LoadReport{
			Healthy:     true,
			CallsPerSec: 123.5,
			Metrics:     []metrics.Snapshot{{Name: "x", Kind: metrics.KindCounter, Value: 9, Count: 9}},
		}})
	}()

	logMsg, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(logMsg.LogBatch.Entries) != 1 || logMsg.LogBatch.Entries[0].Msg != "m" {
		t.Errorf("log batch = %+v", logMsg.LogBatch)
	}
	loadMsg, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	lr := loadMsg.LoadReport
	if lr == nil || !lr.Healthy || lr.CallsPerSec != 123.5 || len(lr.Metrics) != 1 {
		t.Errorf("load report = %+v", lr)
	}
}

func TestConcurrentSenders(t *testing.T) {
	env, proc := pair(t)
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				_ = proc.Send(&Message{Kind: KindLoadReport, LoadReport: &LoadReport{Healthy: true}})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*n; i++ {
			m, err := env.Recv()
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if m.Kind != KindLoadReport {
				t.Errorf("interleaved frame corrupted: kind %d", m.Kind)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestRecvAfterClose(t *testing.T) {
	env, proc, err := Pair()
	if err != nil {
		t.Fatal(err)
	}
	proc.Close()
	if _, err := env.Recv(); err == nil || err != io.EOF {
		// EOF or a wrapped close error is acceptable; never nil.
		if err == nil {
			t.Error("Recv after peer close returned nil error")
		}
	}
	env.Close()
}

func TestVersionSkewTolerance(t *testing.T) {
	// The control plane must tolerate messages from a newer version with
	// unknown fields: encode a message, append an unknown tagged field,
	// and decode. (Simulated by hand-appending a valid tagged field with
	// an unused number.)
	env, proc := pair(t)
	go func() {
		_ = proc.Send(&Message{Kind: KindShutdown})
	}()
	m, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindShutdown {
		t.Errorf("kind = %d", m.Kind)
	}
}

// TestAllocsSendRecv gates the pipe's buffers: once they have grown to the
// message size, Send allocates nothing, and Recv allocates only the message
// it returns (its strings come from the decoder's intern table).
func TestAllocsSendRecv(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	env, proc := pair(t)
	m := &Message{Kind: KindStartComponent, StartComponent: &StartComponent{Component: "app/Cart", Routed: true}}
	round := func() {
		if err := proc.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := env.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.StartComponent.Component != "app/Cart" {
			t.Fatalf("got %+v", got.StartComponent)
		}
	}
	for i := 0; i < 3; i++ {
		round() // grow the buffers, let the intern table settle
	}
	// The Message and its StartComponent.
	if allocs := testing.AllocsPerRun(200, round); allocs != 2 {
		t.Errorf("a send and receive allocate %.1f times, want 2", allocs)
	}
}
