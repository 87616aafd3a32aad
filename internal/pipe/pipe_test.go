package pipe

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec/tagged"
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
			Pid:  1234,
			Addr: "127.0.0.1:9999",
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
	if gr.Pid != wr.Pid || gr.Addr != wr.Addr {
		t.Errorf("payload = %+v", got.RegisterReplica)
	}
}

func TestRegisterReplicaRecoveryFields(t *testing.T) {
	env, proc := pair(t)
	go func() {
		_ = proc.Send(&Message{
			Kind: KindRegisterReplica,
			RegisterReplica: &RegisterReplica{
				Hosted:  []string{"app/Cart", "app/Checkout"},
				Routing: map[string]uint64{"app/Cart": 7, "app/Pay": 12},
				Epoch:   12,
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

// The parent protocol's shapes of the two messages whose fields changed:
// RegisterReplica still carried the replica's id (tag 1), group (tag 2)
// and version label (tag 5), and HostComponents had no admission limits.
type (
	parentRegisterReplica struct {
		ProcletID string            `tag:"1"`
		Group     string            `tag:"2"`
		Pid       int64             `tag:"3"`
		Addr      string            `tag:"4"`
		Version   string            `tag:"5"`
		Hosted    []string          `tag:"6"`
		Routing   map[string]uint64 `tag:"7"`
		Epoch     uint64            `tag:"8"`
	}
	parentHostComponents struct {
		Components []string `tag:"1"`
		Version    uint64   `tag:"2"`
	}
	parentMessage struct {
		Kind            uint32                 `tag:"1"`
		ID              uint64                 `tag:"2"`
		Err             string                 `tag:"3"`
		RegisterReplica *parentRegisterReplica `tag:"4"`
		HostComponents  *parentHostComponents  `tag:"10"`
	}
)

// TestVersionSkewTolerance checks both directions of the skew between an
// application binary and the deployer that runs it. An app built against
// the parent protocol registers with the id, group and version fields the
// current RegisterReplica dropped: the current envelope must skip them
// and keep every other field. A current manager answers ComponentsToHost
// with admission limits the parent's HostComponents does not know: the
// parent proclet must still read its components and epoch, and then runs
// without admission limits, because it cannot see them.
func TestVersionSkewTolerance(t *testing.T) {
	t.Run("ParentRegisterReplica", func(t *testing.T) {
		old := &parentMessage{Kind: KindRegisterReplica, ID: 9, RegisterReplica: &parentRegisterReplica{
			ProcletID: "cart/2", Group: "cart", Pid: 4242, Addr: "127.0.0.1:9999", Version: "v3",
			Hosted: []string{"app/Cart"}, Routing: map[string]uint64{"app/Cart": 7}, Epoch: 12,
		}}
		body, err := tagged.MarshalAppend(nil, old)
		if err != nil {
			t.Fatal(err)
		}
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		m, err := NewConn(bytes.NewReader(frame), nil).Recv()
		if err != nil {
			t.Fatalf("a parent registration does not decode: %v", err)
		}
		want := &RegisterReplica{Pid: 4242, Addr: "127.0.0.1:9999", Hosted: []string{"app/Cart"},
			Routing: map[string]uint64{"app/Cart": 7}, Epoch: 12}
		if m.Kind != KindRegisterReplica || m.ID != 9 || !reflect.DeepEqual(m.RegisterReplica, want) {
			t.Errorf("decoded %+v with %+v, want kind %d, ID 9 and %+v", m, m.RegisterReplica, KindRegisterReplica, want)
		}
	})
	t.Run("LimitsToParentProclet", func(t *testing.T) {
		var out bytes.Buffer
		reply := &Message{Kind: KindAck, ID: 1, HostComponents: &HostComponents{
			Components: []string{"app/Cart", "app/Pay"}, Version: 4, MaxInflight: 8, MaxQueue: 16,
		}}
		if err := NewConn(nil, &out).Send(reply); err != nil {
			t.Fatal(err)
		}
		var old parentMessage
		if err := tagged.Unmarshal(out.Bytes()[4:], &old); err != nil {
			t.Fatalf("a reply with limits does not decode under the parent protocol: %v", err)
		}
		want := &parentHostComponents{Components: []string{"app/Cart", "app/Pay"}, Version: 4}
		if old.Kind != KindAck || old.ID != 1 || !reflect.DeepEqual(old.HostComponents, want) {
			t.Errorf("decoded %+v with %+v, want an ack with ID 1 and %+v", old, old.HostComponents, want)
		}
	})
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

// answer runs c's reader until c breaks, acking every StartComponent
// request with the component name it carried.
func answer(c *Conn) {
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			reply := &Message{StartComponent: &StartComponent{Component: m.StartComponent.Component}}
			_ = c.Ack(m, reply, nil)
		}
	}()
}

// TestAcksReachTheirRequests has both ends send requests concurrently over
// one pipe, as envelope and proclet do: every reply must reach the request
// it answers, and the two ends' IDs must keep their parity.
func TestAcksReachTheirRequests(t *testing.T) {
	env, proc := pair(t)
	answer(env)
	answer(proc)
	const callers, calls = 4, 50
	var wg sync.WaitGroup
	for side, c := range map[uint64]*Conn{0: env, 1: proc} {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					want := fmt.Sprintf("side%d/caller%d/%d", side, g, i)
					req := &Message{Kind: KindStartComponent, StartComponent: &StartComponent{Component: want}}
					reply, err := c.Call(context.Background(), req)
					if err != nil {
						t.Error(err)
						return
					}
					if req.ID%2 != side || reply.ID != req.ID || reply.StartComponent.Component != want {
						t.Errorf("request %d (%s) got reply %d (%+v)", req.ID, want, reply.ID, reply.StartComponent)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestStrayAcksDropped checks that an ack for an ID that was never used,
// or that was already answered, completes nothing and is not returned by
// Recv.
func TestStrayAcksDropped(t *testing.T) {
	env, proc := pair(t)
	var answers atomic.Int32
	env.Request(&Message{Kind: KindShutdown}, func(*Message, error) { answers.Add(1) })
	req, err := proc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = proc.Send(&Message{Kind: KindAck, ID: 1000})
		_ = proc.Ack(req, nil, nil)
		_ = proc.Ack(req, nil, errors.New("answered twice"))
		_ = proc.Send(&Message{Kind: KindLoadReport, LoadReport: &LoadReport{CallsPerSec: 1}})
	}()
	m, err := env.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindLoadReport {
		t.Errorf("Recv returned kind %d, want the load report after the acks", m.Kind)
	}
	if n := answers.Load(); n != 1 {
		t.Errorf("request answered %d times, want 1", n)
	}
}

// TestCloseFailsPending checks that a closing Conn fails every pending
// request at once: callbacks get an error wrapping ErrClosed, a Call
// returns without waiting for its ctx, and later requests fail at once.
// The same holds when the peer goes away under a running reader.
func TestCloseFailsPending(t *testing.T) {
	for _, how := range []string{"Close", "peer gone"} {
		t.Run(how, func(t *testing.T) {
			env, proc := pair(t)
			go func() {
				for {
					if _, err := env.Recv(); err != nil {
						return
					}
				}
			}()
			const n = 8
			failed := make(chan error, n+1)
			for i := 0; i < n; i++ {
				env.Request(&Message{Kind: KindShutdown}, func(_ *Message, err error) { failed <- err })
			}
			called := make(chan error, 1)
			go func() {
				_, err := env.Call(context.Background(), &Message{Kind: KindShutdown})
				called <- err
			}()
			for i := 0; i <= n; i++ {
				if _, err := proc.Recv(); err != nil { // every request is out
					t.Fatal(err)
				}
			}
			if how == "Close" {
				env.Close()
			} else {
				proc.Close()
			}
			timeout := time.After(5 * time.Second)
			for i := 0; i < n; i++ {
				select {
				case err := <-failed:
					if !errors.Is(err, ErrClosed) {
						t.Errorf("callback err = %v, want ErrClosed", err)
					}
				case <-timeout:
					t.Fatalf("%d of %d callbacks never failed", n-i, n)
				}
			}
			select {
			case err := <-called:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Call err = %v, want ErrClosed", err)
				}
			case <-timeout:
				t.Fatal("Call waited on a closed Conn")
			}
			env.Request(&Message{Kind: KindShutdown}, func(_ *Message, err error) { failed <- err })
			if err := <-failed; !errors.Is(err, ErrClosed) {
				t.Errorf("request after close: err = %v, want ErrClosed", err)
			}
		})
	}
}
