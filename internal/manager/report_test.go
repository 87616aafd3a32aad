package manager

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"repro/internal/autoscale"
	"repro/internal/clock"
	"repro/internal/cplane"
	"repro/internal/envelope"
	"repro/internal/metrics"
	"repro/internal/pipe"
)

// withReplicas returns a manager whose group A holds n ready replicas
// A/0 … A/n-1, added to the State and the status table the way a launch
// adds them, but with no envelope or proclet behind them. Its clock is a
// fake that never advances, its autoscaler keeps A at n replicas, and its
// scale loop is parked: the test runs every reconcile pass itself.
func withReplicas(t testing.TB, n int) *Manager {
	t.Helper()
	m, err := New(Config{
		App:              "t",
		Components:       inventory(),
		DefaultAutoscale: autoscale.Config{MinReplicas: n, MaxReplicas: n},
		ScaleInterval:    time.Hour,
		Clock:            clock.NewFake(),
		Logger:           quietLogger(),
	}, noStart)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	now := m.clk.Now()
	m.store.Update(func(s *cplane.State) {
		g := s.Groups["A"]
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("A/%d", i)
			g.Replicas[id] = &cplane.Replica{ID: id, Addr: "addr-" + id, Ready: true, Healthy: true}
			m.status.Touch(id, now)
		}
		g.NextID = n
	})
	return m
}

// replicaEnv stands in for the envelope of replica A/i: LoadReport reads
// only its ID and Group.
func replicaEnv(i int) *envelope.Envelope {
	return &envelope.Envelope{ID: fmt.Sprintf("A/%d", i), Group: "A"}
}

// proclet metrics of a typical replica: per-method counters and latency
// histograms, the shape a load report carries every interval.
func reportRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	for _, m := range []string{"Get", "Put", "List", "Delete"} {
		r.Counter("component.served.app/A." + m).Add(42)
		r.Counter("component.errors.app/A." + m).Add(1)
		r.Histogram("component.latency_us.app/A."+m, nil).Put(17)
	}
	r.Gauge("component.inflight").Set(3)
	return r
}

// TestAllocsLoadReport gates one steady-state load report end to end: the
// proclet side snapshots its registry into a reused slice and sends the
// report, the envelope side receives and decodes it, and the manager
// applies it. What remains is the decoded report the manager keeps (the
// message, the report and its snapshot slices); encoding, the pipe buffers
// and applying the report allocate nothing.
func TestAllocsLoadReport(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	m := withReplicas(t, 3)
	e := replicaEnv(1)
	envConn, procConn, err := pipe.Pair()
	if err != nil {
		t.Fatal(err)
	}
	defer envConn.Close()
	defer procConn.Close()

	reg := reportRegistry()
	var snap []metrics.Snapshot
	var lr pipe.LoadReport
	var msg pipe.Message
	sendOn := func(c *pipe.Conn) {
		snap = reg.AppendSnapshot(snap)
		lr = pipe.LoadReport{Healthy: true, CallsPerSec: 12.5, Metrics: snap}
		msg = pipe.Message{Kind: pipe.KindLoadReport, LoadReport: &lr}
		if err := c.Send(&msg); err != nil {
			t.Fatal(err)
		}
	}
	discard := pipe.NewConn(nil, io.Discard)
	if allocs := testing.AllocsPerRun(200, func() { sendOn(discard) }); allocs != 0 {
		t.Errorf("building and sending a report allocates %.1f times, want 0", allocs)
	}

	versionBefore := m.ControlState().Version
	var got *pipe.Message
	round := func() {
		sendOn(procConn)
		if got, err = envConn.Recv(); err != nil {
			t.Fatal(err)
		}
		m.LoadReport(e, *got.LoadReport)
	}
	for i := 0; i < 3; i++ {
		round() // let the intern table settle
	}
	allocs := testing.AllocsPerRun(200, round)
	prev := got.LoadReport.Metrics
	round()
	// The budget: the Message and LoadReport the decoder allocates, the
	// Metrics slice, and per histogram its Bounds and Buckets slices, each
	// allocated once at its final size; plus any metric name the intern
	// table copies afresh because another hot string holds its slot.
	fresh := 0
	for i, s := range got.LoadReport.Metrics {
		if unsafe.StringData(s.Name) != unsafe.StringData(prev[i].Name) {
			fresh++
		}
	}
	budget := 2 + 1 + 4*2 + fresh
	t.Logf("%.1f allocations per report round trip (%d snapshots, %d names copied)", allocs, len(snap), fresh)
	if allocs != float64(budget) {
		t.Errorf("a load report round trip allocates %.1f times, want %d", allocs, budget)
	}
	if v := m.ControlState().Version; v != versionBefore {
		t.Errorf("load reports moved the State version %d -> %d", versionBefore, v)
	}
	if rate, _ := m.status.Load(e.ID); rate != 12.5 {
		t.Errorf("status rate = %v, want 12.5", rate)
	}
}

// TestLoadReportCostIndependentOfState applies reports to a 10-replica and
// a 1000-replica State: neither allocates, where every report used to clone
// the whole State.
func TestLoadReportCostIndependentOfState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	for _, n := range []int{10, 1000} {
		m := withReplicas(t, n)
		e := replicaEnv(n / 2)
		lr := pipe.LoadReport{Healthy: true, CallsPerSec: 3, Metrics: reportRegistry().Snapshot()}
		if allocs := testing.AllocsPerRun(100, func() { m.LoadReport(e, lr) }); allocs != 0 {
			t.Errorf("%d replicas: applying a report allocates %.1f times, want 0", n, allocs)
		}
	}
}

// BenchmarkLoadReport applies one replica's load report to States of 10
// and 1000 replicas. Both cost the same, allocation-free.
func BenchmarkLoadReport(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprintf("Replicas%d", n), func(b *testing.B) {
			m := withReplicas(b, n)
			e := replicaEnv(n / 2)
			lr := pipe.LoadReport{Healthy: true, CallsPerSec: 3, Metrics: reportRegistry().Snapshot()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.LoadReport(e, lr)
			}
		})
	}
}

// TestVersionMovesOnlyOnDesiredChanges drives a manager through seeded
// random sequences of observations — load reports that keep a replica's
// health, routing acks, reconcile passes that decide nothing new — and
// desired changes — reports that flip health, routing stamps. The State's
// Version must move by exactly one on each desired change and never on an
// observation, and the observations must still land in the status table.
func TestVersionMovesOnlyOnDesiredChanges(t *testing.T) {
	const replicas = 4
	for seed := uint64(1); seed <= 20; seed++ {
		m := withReplicas(t, replicas)
		m.scaleOnce(m.clk.Now()) // the first pass records A's target
		rng := rand.New(rand.NewPCG(seed, 0))
		for step := 0; step < 200; step++ {
			before := m.ControlState()
			i := rng.IntN(replicas)
			id := fmt.Sprintf("A/%d", i)
			healthy := before.Replica("A", id).Healthy
			var desired bool
			var what string
			switch rng.IntN(5) {
			case 0:
				rate := float64(rng.IntN(1000))
				what = fmt.Sprintf("report from %s keeping health", id)
				m.LoadReport(replicaEnv(i), pipe.LoadReport{Healthy: healthy, CallsPerSec: rate})
				if got, _ := m.status.Load(id); got != rate {
					t.Fatalf("seed %d step %d: %s: status rate %v, want %v", seed, step, what, got, rate)
				}
			case 1:
				what = fmt.Sprintf("routing ack from %s", id)
				v := rng.Uint64N(before.RouteEpoch + 1)
				m.status.NoteApplied(id, "app/A", v)
				if got := m.status.Applied(id, "app/A"); got < v {
					t.Fatalf("seed %d step %d: %s: applied %d, want >= %d", seed, step, what, got, v)
				}
			case 2:
				what = "reconcile pass with nothing to do"
				m.scaleOnce(m.clk.Now())
			case 3:
				what = fmt.Sprintf("report from %s flipping health", id)
				desired = true
				m.LoadReport(replicaEnv(i), pipe.LoadReport{Healthy: !healthy})
				if m.ControlState().Replica("A", id).Healthy == healthy {
					t.Fatalf("seed %d step %d: %s: health did not flip", seed, step, what)
				}
			case 4:
				what = "routing stamp"
				desired = true
				m.stampGroupRouting("A")
			}
			want := before.Version
			if desired {
				want++
			}
			if got := m.ControlState().Version; got != want {
				t.Fatalf("seed %d step %d: %s moved Version %d -> %d, want %d", seed, step, what, before.Version, got, want)
			}
			if err := m.CheckApplied(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}
