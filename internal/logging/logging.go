// Package logging implements the structured logging substrate shared by
// proclets, envelopes, and the global manager. Log entries produced inside
// application binaries are shipped over the control-plane pipe to the
// envelope, which forwards them to the manager for aggregation (paper
// Figure 3: "Metrics, traces, logs").
package logging

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
)

// Level is a log severity.
type Level int32

// Severities, in increasing order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's human-readable name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int32(l))
	}
}

// An Entry is one structured log record. Entries cross the control-plane
// pipe, so the struct is tagged for the versioned codec.
type Entry struct {
	TimeNanos int64    `tag:"1"`
	Level     int32    `tag:"2"`
	Component string   `tag:"3"`
	Replica   string   `tag:"4"`
	Msg       string   `tag:"5"`
	Attrs     []string `tag:"6"` // alternating key, value
}

// Format renders the entry in a single human-readable line.
func (e Entry) Format() string {
	var b strings.Builder
	t := time.Unix(0, e.TimeNanos).UTC()
	fmt.Fprintf(&b, "%s %-5s %s", t.Format("15:04:05.000"), Level(e.Level), e.Component)
	if e.Replica != "" {
		fmt.Fprintf(&b, "[%s]", e.Replica)
	}
	b.WriteString(" ")
	b.WriteString(e.Msg)
	for i := 0; i+1 < len(e.Attrs); i += 2 {
		fmt.Fprintf(&b, " %s=%s", e.Attrs[i], e.Attrs[i+1])
	}
	return b.String()
}

// A Sink receives completed log entries.
type Sink interface {
	Log(Entry)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Entry)

// Log calls f(e).
func (f SinkFunc) Log(e Entry) { f(e) }

// A Logger produces structured entries bound to a component and replica.
// Loggers are safe for concurrent use.
type Logger struct {
	component string
	replica   string
	min       Level
	sink      Sink
	now       func() time.Time
}

// Options configures a Logger.
type Options struct {
	Component string
	Replica   string
	Min       Level
	Sink      Sink             // defaults to a TextSink on os.Stderr
	Now       func() time.Time // defaults to time.Now; tests may override
}

// New returns a logger with the given options.
func New(opts Options) *Logger {
	if opts.Sink == nil {
		opts.Sink = NewTextSink(os.Stderr)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Logger{
		component: opts.Component,
		replica:   opts.Replica,
		min:       opts.Min,
		sink:      opts.Sink,
		now:       opts.Now,
	}
}

// With returns a copy of l bound to a different component name.
func (l *Logger) With(component string) *Logger {
	cp := *l
	cp.component = component
	return &cp
}

func (l *Logger) log(level Level, msg string, attrs ...string) {
	if level < l.min {
		return
	}
	l.sink.Log(Entry{
		TimeNanos: l.now().UnixNano(),
		Level:     int32(level),
		Component: l.component,
		Replica:   l.replica,
		Msg:       msg,
		Attrs:     attrs,
	})
}

// Debug logs at debug severity. Attrs are alternating key/value strings.
func (l *Logger) Debug(msg string, attrs ...string) { l.log(LevelDebug, msg, attrs...) }

// Info logs at info severity.
func (l *Logger) Info(msg string, attrs ...string) { l.log(LevelInfo, msg, attrs...) }

// Warn logs at warn severity.
func (l *Logger) Warn(msg string, attrs ...string) { l.log(LevelWarn, msg, attrs...) }

// Error logs at error severity.
func (l *Logger) Error(msg string, err error, attrs ...string) {
	if err != nil {
		attrs = append(attrs, "err", err.Error())
	}
	l.log(LevelError, msg, attrs...)
}

// TextSink writes formatted entries to an io.Writer, one per line.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a sink writing human-readable lines to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Log writes e to the sink's writer.
func (s *TextSink) Log(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintln(s.w, e.Format())
}

// Buffer is a sink that retains entries in memory. It is used by the
// envelope (to batch entries bound for the manager) and by tests.
type Buffer struct {
	mu      sync.Mutex
	entries []Entry
	spare   []Entry // a drained slice handed back by Recycle
	max     int
}

// NewBuffer returns a buffer retaining at most max entries (0 = unlimited).
func NewBuffer(max int) *Buffer { return &Buffer{max: max} }

// Log appends e, evicting the oldest entry if the buffer is full.
func (b *Buffer) Log(e Entry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries = append(b.entries, e)
	if b.max > 0 && len(b.entries) > b.max {
		b.entries = b.entries[len(b.entries)-b.max:]
	}
}

// Drain removes and returns all buffered entries. A caller that is done
// with the returned slice may hand it back with Recycle, and the buffer
// then fills it again instead of growing a new one.
func (b *Buffer) Drain() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.entries
	b.entries, b.spare = b.spare, nil
	return out
}

// Recycle hands back a slice that Drain returned. The caller must not use
// it afterwards.
func (b *Buffer) Recycle(entries []Entry) {
	clear(entries) // release the strings the entries reference
	b.mu.Lock()
	defer b.mu.Unlock()
	if cap(entries) > cap(b.spare) {
		b.spare = entries[:0]
	}
}

// Len reports the number of buffered entries.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Aggregator collects entries from many replicas and serves ordered views,
// playing the manager's log-aggregation role from Figure 3. It retains the
// newest entries in fixed-size chunks (internal/ring), so holding N entries
// allocates them once instead of regrowing one slice.
type Aggregator struct {
	mu      sync.Mutex
	entries *ring.Buffer[Entry]
}

// NewAggregator returns an aggregator retaining at most max entries
// (0 = unlimited).
func NewAggregator(max int) *Aggregator { return &Aggregator{entries: ring.New[Entry](max)} }

// Add ingests a batch of entries from one replica.
func (a *Aggregator) Add(batch []Entry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries.Add(batch...)
}

// Ordered returns all retained entries sorted by timestamp.
func (a *Aggregator) Ordered() []Entry {
	a.mu.Lock()
	out := a.entries.AppendTo(make([]Entry, 0, a.entries.Len()))
	a.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeNanos < out[j].TimeNanos })
	return out
}

// Filter returns retained entries for one component, ordered by time.
func (a *Aggregator) Filter(component string) []Entry {
	var out []Entry
	for _, e := range a.Ordered() {
		if e.Component == component {
			out = append(out, e)
		}
	}
	return out
}

// Discard is a sink that drops all entries.
var Discard Sink = SinkFunc(func(Entry) {})
