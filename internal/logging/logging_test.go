package logging

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedNow() time.Time { return time.Unix(1700000000, 123e6).UTC() }

func TestLoggerLevels(t *testing.T) {
	buf := NewBuffer(0)
	l := New(Options{Component: "C", Replica: "r1", Min: LevelInfo, Sink: buf, Now: fixedNow})
	l.Debug("hidden")
	l.Info("shown", "k", "v")
	l.Warn("warned")
	l.Error("failed", nil)

	entries := buf.Drain()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Msg != "shown" || entries[0].Attrs[0] != "k" {
		t.Errorf("entry = %+v", entries[0])
	}
	if Level(entries[1].Level) != LevelWarn {
		t.Errorf("level = %v", entries[1].Level)
	}
}

func TestErrorAttachesErr(t *testing.T) {
	buf := NewBuffer(0)
	l := New(Options{Sink: buf, Now: fixedNow})
	l.Error("boom", errTest("kaput"))
	e := buf.Drain()[0]
	joined := strings.Join(e.Attrs, " ")
	if !strings.Contains(joined, "kaput") {
		t.Errorf("attrs = %v", e.Attrs)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestFormat(t *testing.T) {
	e := Entry{
		TimeNanos: fixedNow().UnixNano(),
		Level:     int32(LevelWarn),
		Component: "Cart",
		Replica:   "cart/2",
		Msg:       "slow",
		Attrs:     []string{"ms", "250"},
	}
	got := e.Format()
	for _, want := range []string{"WARN", "Cart[cart/2]", "slow", "ms=250"} {
		if !strings.Contains(got, want) {
			t.Errorf("format %q missing %q", got, want)
		}
	}
}

func TestWith(t *testing.T) {
	buf := NewBuffer(0)
	l := New(Options{Component: "A", Sink: buf, Now: fixedNow})
	l.With("B").Info("from B")
	if e := buf.Drain()[0]; e.Component != "B" {
		t.Errorf("component = %q", e.Component)
	}
}

func TestBufferEviction(t *testing.T) {
	buf := NewBuffer(3)
	for i := 0; i < 5; i++ {
		buf.Log(Entry{TimeNanos: int64(i)})
	}
	entries := buf.Drain()
	if len(entries) != 3 || entries[0].TimeNanos != 2 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestAggregatorOrdering(t *testing.T) {
	a := NewAggregator(0)
	a.Add([]Entry{{TimeNanos: 30, Component: "X"}, {TimeNanos: 10, Component: "Y"}})
	a.Add([]Entry{{TimeNanos: 20, Component: "X"}})
	ordered := a.Ordered()
	if len(ordered) != 3 || ordered[0].TimeNanos != 10 || ordered[2].TimeNanos != 30 {
		t.Errorf("ordered = %+v", ordered)
	}
	xs := a.Filter("X")
	if len(xs) != 2 || xs[0].TimeNanos != 20 {
		t.Errorf("filtered = %+v", xs)
	}
}

func TestTextSinkConcurrent(t *testing.T) {
	var sb syncBuilder
	sink := NewTextSink(&sb)
	l := New(Options{Component: "C", Sink: sink, Now: fixedNow})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("line")
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 400 {
		t.Errorf("lines = %d", len(lines))
	}
}

type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestDiscard(t *testing.T) {
	Discard.Log(Entry{}) // must not panic
}

// Drain and Recycle double-buffer: a slice handed back with Recycle is the
// one the buffer fills after the next Drain, so a proclet that drains every
// report interval stops growing new slices.
func TestBufferRecycleReusesDrainedSlice(t *testing.T) {
	buf := NewBuffer(0)
	var drained [][]Entry
	for round := 0; round < 4; round++ {
		for i := 0; i < 10; i++ {
			buf.Log(Entry{Msg: "m"})
		}
		d := buf.Drain()
		if len(d) != 10 {
			t.Fatalf("round %d: drained %d entries, want 10", round, len(d))
		}
		drained = append(drained, d)
		buf.Recycle(d)
		if d[0].Msg != "" {
			t.Fatal("recycled entries still reference their strings")
		}
	}
	for round := 2; round < 4; round++ {
		if &drained[round][:1][0] != &drained[round-2][:1][0] {
			t.Errorf("round %d filled a new slice, not the one recycled two rounds before", round)
		}
	}
}

// The aggregator keeps exactly the newest max entries across batches.
func TestAggregatorKeepsNewest(t *testing.T) {
	a := NewAggregator(2500)
	for batch := 0; batch < 7; batch++ {
		entries := make([]Entry, 1000)
		for i := range entries {
			entries[i].TimeNanos = int64(batch*1000 + i)
		}
		a.Add(entries)
	}
	got := a.Ordered()
	if len(got) != 2500 || got[0].TimeNanos != 4500 || got[2499].TimeNanos != 6999 {
		t.Fatalf("retained %d entries from %d to %d, want 2500 from 4500 to 6999",
			len(got), got[0].TimeNanos, got[len(got)-1].TimeNanos)
	}
}
