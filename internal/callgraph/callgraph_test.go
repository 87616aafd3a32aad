package callgraph

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tracing"
)

func TestRecordAndEdges(t *testing.T) {
	c := NewCollector()
	c.Record("A", "B", "M", 10*time.Microsecond, 100, true, false)
	c.Record("A", "B", "M", 30*time.Microsecond, 200, true, true)
	c.Record("", "A", "Entry", time.Millisecond, 0, false, false)

	edges := c.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d", len(edges))
	}
	// Sorted: ("", A, Entry) then (A, B, M).
	ab := edges[1]
	if ab.Calls != 2 || ab.Errors != 1 || ab.Bytes != 300 || ab.Remote != 2 {
		t.Errorf("edge = %+v", ab)
	}
	if ab.MeanLatency() != 20*time.Microsecond {
		t.Errorf("mean = %v", ab.MeanLatency())
	}
}

func TestDrainResets(t *testing.T) {
	c := NewCollector()
	c.Record("A", "B", "M", time.Microsecond, 1, false, false)
	first := c.Drain()
	if len(first) != 1 {
		t.Fatalf("drain = %d", len(first))
	}
	if len(c.Edges()) != 0 {
		t.Error("collector not reset by Drain")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.Record("X", "Y", "M", time.Microsecond, 1, true, false)
	b.Record("X", "Y", "M", 3*time.Microsecond, 2, true, false)
	b.Record("Y", "Z", "N", time.Microsecond, 1, false, false)
	a.Merge(b.Drain())
	edges := a.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d", len(edges))
	}
	if edges[0].Calls != 2 || edges[0].Bytes != 3 {
		t.Errorf("merged edge = %+v", edges[0])
	}
}

func TestChattyPairs(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Record("A", "B", "M", time.Microsecond, 10, true, false)
	}
	for i := 0; i < 3; i++ {
		c.Record("B", "A", "Callback", time.Microsecond, 10, true, false)
	}
	c.Record("A", "C", "M", time.Microsecond, 10, true, false)

	pairs := c.Analyze().ChattyPairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	// A<->B aggregates both directions: 13 calls.
	if pairs[0].A != "A" || pairs[0].B != "B" || pairs[0].Calls != 13 {
		t.Errorf("top pair = %+v", pairs[0])
	}
}

func TestBottlenecks(t *testing.T) {
	c := NewCollector()
	c.Record("F", "Slow", "M", 100*time.Millisecond, 0, true, false)
	c.Record("F", "Fast", "M", time.Millisecond, 0, true, false)
	c.Record("F", "Fast", "M", time.Millisecond, 0, true, false)
	b := c.Analyze().Bottlenecks()
	if b[0].Component != "Slow" {
		t.Errorf("bottleneck order: %+v", b)
	}
}

func TestDot(t *testing.T) {
	c := NewCollector()
	c.Record("pkg/A", "pkg/B", "M", time.Microsecond, 1, true, false)
	dot := c.Analyze().Dot()
	for _, want := range []string{"digraph", `"A" -> "B"`, `label="1"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Record("A", "B", "M", time.Microsecond, 1, true, false)
			}
		}()
	}
	wg.Wait()
	edges := c.Edges()
	if len(edges) != 1 || edges[0].Calls != 8000 {
		t.Errorf("edges = %+v", edges)
	}
}

func TestCriticalPath(t *testing.T) {
	// Trace: root (10ms) -> child1 (2ms, ends at 3ms), child2 (6ms, ends
	// at 9ms) -> grandchild (5ms).
	spans := []tracing.Span{
		{Trace: 1, ID: 1, Parent: 0, Component: "Frontend", StartNanos: 0, EndNanos: 10e6},
		{Trace: 1, ID: 2, Parent: 1, Component: "Fast", StartNanos: 1e6, EndNanos: 3e6},
		{Trace: 1, ID: 3, Parent: 1, Component: "Slow", StartNanos: 3e6, EndNanos: 9e6},
		{Trace: 1, ID: 4, Parent: 3, Component: "Deep", StartNanos: 3.5e6, EndNanos: 8.5e6},
	}
	path := CriticalPath(spans)
	if len(path) != 3 {
		t.Fatalf("path = %d spans", len(path))
	}
	if path[0].Component != "Frontend" || path[1].Component != "Slow" || path[2].Component != "Deep" {
		t.Errorf("path = %s -> %s -> %s", path[0].Component, path[1].Component, path[2].Component)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if CriticalPath(nil) != nil {
		t.Error("critical path of nothing")
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Record("A", "B", "M", time.Microsecond, 1, true, false) // must not panic
}

func TestEdgeHandleSurvivesDrain(t *testing.T) {
	c := NewCollector()
	h := c.Edge("A", "B", "M")
	if n := len(c.Edges()); n != 0 {
		t.Fatalf("bound but unused handle shows %d edges, want 0", n)
	}
	h.Record(time.Microsecond, 0, true, true)
	if d := c.Drain(); len(d) != 1 || d[0].Calls != 1 || d[0].Errors != 1 || d[0].Remote != 1 {
		t.Fatalf("first drain = %+v", d)
	}
	if n := len(c.Drain()); n != 0 {
		t.Fatalf("second drain with no calls = %d edges, want 0", n)
	}
	h.Record(2*time.Microsecond, 0, false, false)
	if c.Edge("A", "B", "M") != h {
		t.Error("Edge returned a different handle for the same edge")
	}
	d := c.Drain()
	if len(d) != 1 || d[0].Calls != 1 || d[0].Errors != 0 || d[0].Remote != 0 || d[0].TotalNanos != 2000 {
		t.Errorf("drain after re-use = %+v", d)
	}
}

// TestDrainConcurrentWithRecord checks that no observation is lost or
// double-counted when drains race with recording: the drained deltas sum
// to exactly what was recorded.
func TestDrainConcurrentWithRecord(t *testing.T) {
	c := NewCollector()
	h := c.Edge("A", "B", "M")
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Record(time.Nanosecond, 1, true, false)
			}
		}()
	}
	done := make(chan struct{})
	var sum Edge
	go func() {
		defer close(done)
		add := func(batch []Edge) {
			for _, e := range batch {
				sum.Calls += e.Calls
				sum.Bytes += e.Bytes
				sum.Remote += e.Remote
				sum.TotalNanos += e.TotalNanos
			}
		}
		for sum.Calls < writers*perWriter {
			add(c.Drain())
		}
		wg.Wait()
		add(c.Drain())
	}()
	wg.Wait()
	<-done
	const n = writers * perWriter
	if sum.Calls != n || sum.Bytes != n || sum.Remote != n || sum.TotalNanos != n {
		t.Errorf("drained sum = %+v, want %d of each", sum, n)
	}
}
