// Package metrics implements the counters, gauges, and histograms exported
// by proclets and aggregated by the global manager (paper Figure 3:
// "Metrics, traces, logs").
//
// Metrics are cheap enough to record on the data path: counters and gauges
// are single atomic operations, and histograms are an atomic increment on a
// precomputed bucket. Snapshots are taken without stopping writers and are
// merged additively by the manager across replicas.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta. It panics if delta is negative.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a metric that can go up and down.
type Gauge struct {
	name string
	v    atomic.Int64 // value in micro-units to allow fractional gauges
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set sets the gauge.
func (g *Gauge) Set(v float64) { g.v.Store(int64(v * 1e6)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v.Add(int64(delta * 1e6)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return float64(g.v.Load()) / 1e6 }

// DefaultBuckets are exponential histogram bucket upper bounds suitable for
// latencies in microseconds: 1us .. ~17s, doubling.
var DefaultBuckets = func() []float64 {
	b := make([]float64, 25)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// A Histogram records a distribution of observations in fixed buckets.
// Its count is the sum of its buckets, not a field of its own: a Put then
// writes no field on the cache line that holds bounds and buckets, which
// every Put reads, unless the observation is positive and adds to sum.
type Histogram struct {
	name    string
	bounds  []float64 // upper bounds, ascending; implicit +Inf bucket at end
	buckets []atomic.Uint64
	sum     atomic.Uint64 // sum in micro-units
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Put records one observation.
func (h *Histogram) Put(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	if v > 0 {
		h.sum.Add(uint64(v * 1e6))
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of recorded observations (only positive observations
// contribute). Count and Sum together give the distribution's mean — e.g.
// frames drained per batched read.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e6 }

// Snapshot is a point-in-time copy of a metric's state, suitable for
// shipping over the control plane. Snapshots of the same metric from
// different replicas merge additively.
type Snapshot struct {
	Name    string    `tag:"1"`
	Kind    uint32    `tag:"2"` // 0 counter, 1 gauge, 2 histogram
	Value   float64   `tag:"3"` // counter or gauge value
	Bounds  []float64 `tag:"4"`
	Buckets []uint64  `tag:"5"`
	Count   uint64    `tag:"6"`
	Sum     float64   `tag:"7"`
}

// Kinds of metrics in a Snapshot.
const (
	KindCounter   = 0
	KindGauge     = 1
	KindHistogram = 2
)

// Merge adds other into s. Both snapshots must describe the same metric.
// Gauges merge by summation, which is what the manager wants when adding up
// per-replica load.
func (s *Snapshot) Merge(other Snapshot) error {
	if s.Name != other.Name || s.Kind != other.Kind {
		return fmt.Errorf("metrics: merging %q/%d with %q/%d", s.Name, s.Kind, other.Name, other.Kind)
	}
	s.Value += other.Value
	s.Count += other.Count
	s.Sum += other.Sum
	if len(s.Buckets) == len(other.Buckets) {
		for i := range s.Buckets {
			s.Buckets[i] += other.Buckets[i]
		}
	}
	return nil
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of a histogram
// snapshot by linear interpolation within the containing bucket.
func (s *Snapshot) Quantile(q float64) float64 {
	if s.Kind != KindHistogram || s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum float64
	lower := 0.0
	for i, c := range s.Buckets {
		next := cum + float64(c)
		var upper float64
		if i < len(s.Bounds) {
			upper = s.Bounds[i]
		} else {
			// +Inf bucket: fall back to the last finite bound.
			upper = lower * 2
			if upper == 0 {
				upper = 1
			}
		}
		if next >= rank && c > 0 {
			frac := (rank - cum) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum = next
		lower = upper
	}
	return lower
}

// Mean returns the average of recorded observations.
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// A Registry holds named metrics. The zero value is unusable; use
// NewRegistry. Registries are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry used by the weaver runtime.
var Default = NewRegistry()

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use. Pass nil bounds for DefaultBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if bounds == nil {
			bounds = DefaultBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("metrics: unsorted bounds for %s", name))
		}
		h = &Histogram{
			name:    name,
			bounds:  bounds,
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures the current state of every metric in the registry,
// sorted by name within each kind.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Snapshot
	for _, c := range r.counters {
		out = append(out, Snapshot{Name: c.name, Kind: KindCounter, Value: float64(c.Value()), Count: c.Value()})
	}
	for _, g := range r.gauges {
		out = append(out, Snapshot{Name: g.name, Kind: KindGauge, Value: g.Value()})
	}
	for _, h := range r.histograms {
		s := Snapshot{
			Name:    h.name,
			Kind:    KindHistogram,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]uint64, len(h.buckets)),
			Sum:     float64(h.sum.Load()) / 1e6,
		}
		for i := range h.buckets {
			s.Buckets[i] = h.buckets[i].Load()
			s.Count += s.Buckets[i]
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// MergeAll merges snapshot slices from many replicas into one map keyed by
// metric name. Snapshots with mismatched shapes are merged best-effort.
func MergeAll(batches ...[]Snapshot) map[string]Snapshot {
	out := map[string]Snapshot{}
	for _, batch := range batches {
		for _, s := range batch {
			cur, ok := out[s.Name]
			if !ok {
				cp := s
				cp.Bounds = append([]float64(nil), s.Bounds...)
				cp.Buckets = append([]uint64(nil), s.Buckets...)
				out[s.Name] = cp
				continue
			}
			_ = cur.Merge(s)
			out[s.Name] = cur
		}
	}
	return out
}
