package deploy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/envelope"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/proclet"
	"repro/internal/tracing"
)

// reportCounter is a minimal control plane that hosts nothing and counts
// the load reports that carry the process-global registry.
type reportCounter struct {
	mu      sync.Mutex
	reports map[string]int // load reports per proclet
	process int            // load reports with a process snapshot
}

func (m *reportCounter) RegisterReplica(*envelope.Envelope, pipe.RegisterReplica) error {
	return nil
}
func (m *reportCounter) ComponentsToHost(*envelope.Envelope) ([]string, error) { return nil, nil }
func (m *reportCounter) StartComponent(*envelope.Envelope, string, bool) error { return nil }
func (m *reportCounter) LoadReport(e *envelope.Envelope, lr pipe.LoadReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reports[e.ID]++
	if lr.Process != nil {
		m.process++
	}
}
func (m *reportCounter) Logs([]logging.Entry)                    {}
func (m *reportCounter) Traces([]tracing.Span)                   {}
func (m *reportCounter) GraphEdges([]callgraph.Edge)             {}
func (m *reportCounter) ReplicaExited(*envelope.Envelope, error) {}

// TestProcessSnapshotShippedOncePerInterval runs three proclets in this
// process, as an in-process deployment does, and counts the load reports
// that carry metrics.Default. The manager keeps one such snapshot per
// process, so over N report intervals at most N+1 may arrive, not one per
// proclet per interval.
func TestProcessSnapshotShippedOncePerInterval(t *testing.T) {
	const proclets = 3
	metrics.Default.Counter("deploy.test.process_report").Inc()
	mgr := &reportCounter{reports: map[string]int{}}
	for i := 0; i < proclets; i++ {
		envConn, procConn, err := pipe.Pair()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("r/%d", i)
		envelope.Attach(id, "r", envConn, mgr)
		p, err := proclet.Start(context.Background(), proclet.Options{
			Conn:           procConn,
			ProcletID:      id,
			Group:          "r",
			Fill:           fill,
			ReportInterval: reportInterval,
			Logger:         logging.New(logging.Options{Sink: logging.Discard}),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Shutdown(nil) })
	}
	waitFor(t, 10*time.Second, func() bool {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		return len(mgr.reports) == proclets
	})

	mgr.mu.Lock()
	mgr.process = 0
	mgr.mu.Unlock()
	start := time.Now()
	time.Sleep(20 * reportInterval)
	mgr.mu.Lock()
	got := mgr.process
	mgr.mu.Unlock()
	intervals := int(time.Since(start)/reportInterval) + 1
	t.Logf("%d process snapshots over %d intervals", got, intervals)
	if got == 0 || got > intervals+1 {
		t.Errorf("%d process snapshots over %d intervals from %d proclets, want 1..%d",
			got, intervals, proclets, intervals+1)
	}
}
