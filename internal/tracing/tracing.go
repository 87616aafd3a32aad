// Package tracing implements lightweight distributed tracing for component
// method calls. Every cross-component call carries a trace context (trace
// id, span id) in its RPC header; proclets record completed spans and export
// them over the control plane, where the manager assembles them into
// end-to-end traces and feeds the call-graph analyzer (paper §5.1).
package tracing

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request.
type TraceID uint64

// SpanID identifies one operation within a trace.
type SpanID uint64

// SpanContext is the portion of a span that crosses process boundaries.
type SpanContext struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	// Sampled is the root tracer's sampling decision: made once where the
	// trace starts and carried to every hop (a flag bit on the wire), so a
	// multi-process trace is recorded in full or not at all, even if
	// processes were configured with different sampling fractions.
	Sampled bool
}

// Valid reports whether the context carries a real trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// A Span records one timed operation: a component method invocation.
// Spans cross the control-plane pipe, so the struct is tagged.
type Span struct {
	Trace      uint64 `tag:"1"`
	ID         uint64 `tag:"2"`
	Parent     uint64 `tag:"3"`
	Component  string `tag:"4"`
	Method     string `tag:"5"`
	Caller     string `tag:"6"` // calling component, "" for external entry
	StartNanos int64  `tag:"7"`
	EndNanos   int64  `tag:"8"`
	Err        string `tag:"9"`
	Remote     bool   `tag:"10"`
	Bytes      int64  `tag:"11"` // serialized request+response size
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration {
	return time.Duration(s.EndNanos - s.StartNanos)
}

type ctxKey struct{}

// NewTrace returns a fresh root span context.
func NewTrace() SpanContext {
	return SpanContext{Trace: TraceID(nonZero()), Span: SpanID(nonZero())}
}

// Child returns a new child context of sc, inheriting the sampling
// decision.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{Trace: sc.Trace, Span: SpanID(nonZero()), Parent: sc.Span, Sampled: sc.Sampled}
}

func nonZero() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// ContextWith returns ctx annotated with sc.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// A Carrier is a context that holds its span context in a field instead of
// a context value, so reading it neither walks a value chain nor boxes.
// The rpc server's per-request context is one. A Carrier's Value method
// must also answer the tracing key (see IsKey), so that a context derived
// from it, e.g. by context.WithCancel, still resolves the span context.
type Carrier interface {
	context.Context
	SpanContext() (SpanContext, bool)
}

// IsKey reports whether key is the context key under which ContextWith
// stores a span context. Carriers use it to implement Value.
func IsKey(key any) bool {
	_, ok := key.(ctxKey)
	return ok
}

// FromContext extracts the span context from ctx, if any: directly from a
// Carrier, otherwise from the context's values.
func FromContext(ctx context.Context) (SpanContext, bool) {
	if c, ok := ctx.(Carrier); ok {
		return c.SpanContext()
	}
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}

// Recorder accumulates completed spans for export. It applies head sampling:
// a trace is recorded iff its trace id falls inside the sampled fraction, so
// all processes make the same decision for a given trace without
// coordination.
type Recorder struct {
	mu       sync.Mutex
	spans    []Span
	max      int
	fraction float64 // sampled fraction in [0, 1]
}

// NewRecorder returns a recorder retaining at most max spans (0 =
// unlimited) and sampling the given fraction of traces.
func NewRecorder(max int, fraction float64) *Recorder {
	return &Recorder{max: max, fraction: fraction}
}

// Sampled reports whether spans of the given trace should be recorded.
func (r *Recorder) Sampled(t TraceID) bool {
	if r == nil || r.fraction <= 0 {
		return false
	}
	if r.fraction >= 1 {
		return true
	}
	return float64(t)/float64(^uint64(0)) < r.fraction
}

// Record stores a completed span if its trace is sampled by this
// recorder's fraction. Callers holding a SpanContext should prefer
// RecordSampled, which honors the root's decision carried on the wire.
func (r *Recorder) Record(s Span) {
	if r == nil || !r.Sampled(TraceID(s.Trace)) {
		return
	}
	r.record(s)
}

// RecordSampled stores a completed span iff sampled — the decision the
// trace's root made, regardless of this recorder's own fraction.
func (r *Recorder) RecordSampled(s Span, sampled bool) {
	if r == nil || !sampled {
		return
	}
	r.record(s)
}

func (r *Recorder) record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	if r.max > 0 && len(r.spans) > r.max {
		r.spans = r.spans[len(r.spans)-r.max:]
	}
}

// Drain removes and returns all recorded spans.
func (r *Recorder) Drain() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// Len reports the number of retained spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
