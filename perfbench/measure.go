package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// procCounters is a reading of the process-wide counters the end-to-end
// and runtime metrics are deltas of.
type procCounters struct {
	at       time.Time
	cpu      time.Duration // user+sys CPU of the whole process
	allocs   uint64        // bytes allocated on the heap
	gcCPU    float64       // estimated GC CPU seconds
	allCPU   float64       // estimated CPU seconds available to the Go runtime
	gcCycles uint64
	sched    []uint64  // goroutine scheduling-latency histogram counts
	bounds   []float64 // its bucket boundaries
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() procCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return procCounters{
		at:       time.Now(),
		cpu:      processCPU(),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		allCPU:   s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
		sched:    append([]uint64(nil), h.Counts...),
		bounds:   h.Buckets,
	}
}

// schedP99 is the 99th percentile of the scheduling latencies recorded
// between two readings, in microseconds: the upper bound of the bucket
// holding it.
func schedP99(a, b procCounters) float64 {
	var total uint64
	delta := make([]uint64, len(b.sched))
	for i := range delta {
		delta[i] = b.sched[i] - a.sched[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			upper := b.bounds[i+1]
			if math.IsInf(upper, 1) {
				upper = b.bounds[i]
			}
			return upper * 1e6
		}
	}
	return 0
}

// latHist is a log-linear histogram of latencies in nanoseconds: exact
// below histSub ns, then histSub equal buckets per power of two, so a
// percentile read from it is within 1/histSub of the truth. It has a fixed
// size, so recording does not grow the heap over a window and shift the
// program's garbage collection. Callers add to it concurrently.
type latHist struct {
	buckets [histBlocks * histSub]atomic.Uint32
	over    atomic.Uint32 // failed ops and latencies beyond the range
}

const (
	histSub    = 128
	histBlocks = 35 // up to 2^41 ns, about 37 minutes
)

func histIndex(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // ns is in [2^e, 2^(e+1))
	return (e-6)*histSub + int(ns>>(e-7)-histSub)
}

// histBucket returns the lower bound and width of bucket i in nanoseconds.
func histBucket(i int) (lower, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64((histSub + i%histSub) << shift), float64(int64(1) << shift)
}

// add records one latency; failed ops count as beyond the range.
func (h *latHist) add(d time.Duration, failed bool) {
	i := histIndex(d.Nanoseconds())
	if failed || i >= len(h.buckets) {
		h.over.Add(1)
		return
	}
	h.buckets[i].Add(1)
}

// quantile returns the q-quantile by nearest rank, interpolated linearly
// within its bucket. A rank beyond the range reads as the range's end.
func (h *latHist) quantile(q float64) time.Duration {
	var n uint64
	for i := range h.buckets {
		n += uint64(h.buckets[i].Load())
	}
	n += uint64(h.over.Load())
	if n == 0 {
		return 0
	}
	rank := math.Max(math.Ceil(q*float64(n)), 1)
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c > 0 && cum+c >= rank {
			lower, width := histBucket(i)
			return time.Duration(lower + width*(rank-cum)/c)
		}
		cum += c
	}
	lower, width := histBucket(len(h.buckets) - 1)
	return time.Duration(lower + width)
}

// percentile returns the q-quantile of sorted by nearest rank.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
