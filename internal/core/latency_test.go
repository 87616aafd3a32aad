package core

import (
	"testing"
	"time"
)

// TestLatencyTrackerCachesZeroQuantile exercises the dirty-flag fix: when
// the true p99 is 0 (all samples sub-resolution), the tracker must still
// cache the result instead of re-sorting the ring on every p99 call.
func TestLatencyTrackerCachesZeroQuantile(t *testing.T) {
	lt := newLatencyTracker()
	for i := 0; i < hedgeMinSamples; i++ {
		lt.add(0)
	}
	if got := lt.p99(); got != 0 {
		t.Fatalf("p99 of all-zero samples = %v, want 0", got)
	}
	if !lt.computed {
		t.Fatal("p99 did not mark the cache computed")
	}
	if lt.sinceCalc != 0 {
		t.Fatalf("sinceCalc = %d after recompute, want 0", lt.sinceCalc)
	}
	// Subsequent calls with no new samples must be cache hits.
	lt.p99()
	if lt.sinceCalc != 0 || !lt.computed {
		t.Fatal("repeated p99 invalidated the cache")
	}
}

// TestLatencyTrackerRecomputeCadence verifies the cache refreshes after 32
// inserts and that the scratch slice is reused rather than reallocated.
func TestLatencyTrackerRecomputeCadence(t *testing.T) {
	lt := newLatencyTracker()
	// Fill the ring to capacity so the scratch slice reaches its
	// steady-state size before we capture it.
	for i := 0; i < len(lt.samples); i++ {
		lt.add(time.Millisecond)
	}
	if got := lt.p99(); got != time.Millisecond {
		t.Fatalf("p99 = %v, want %v", got, time.Millisecond)
	}
	scratch := &lt.scratch[0]

	// Fewer than 32 new samples: cached value sticks even though newer,
	// larger samples are in the ring.
	for i := 0; i < 31; i++ {
		lt.add(time.Second)
	}
	if got := lt.p99(); got != time.Millisecond {
		t.Fatalf("p99 before recompute threshold = %v, want cached %v", got, time.Millisecond)
	}

	// One more insert crosses the threshold and triggers a recompute that
	// sees the new samples — reusing the same scratch storage.
	lt.add(time.Second)
	if got := lt.p99(); got != time.Second {
		t.Fatalf("p99 after recompute = %v, want %v", got, time.Second)
	}
	if &lt.scratch[0] != scratch {
		t.Fatal("recompute reallocated the scratch slice")
	}
}

// TestAllocsLatencyTracker gates the hedge delay's quantile: a recompute
// sorts the reused scratch slice in place and allocates nothing. Wired into
// `make allocs`.
func TestAllocsLatencyTracker(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	lt := newLatencyTracker()
	for i := 0; i < len(lt.samples); i++ {
		lt.add(time.Duration(i) * time.Microsecond)
	}
	lt.p99() // sizes the scratch slice
	d := time.Duration(0)
	recomputes := 0
	allocs := testing.AllocsPerRun(10, func() {
		// 32 inserts cross the recompute threshold, so every p99 re-sorts.
		for i := 0; i < 32; i++ {
			d = (d + 7*time.Microsecond) % time.Millisecond
			lt.add(d)
		}
		lt.p99()
		if lt.sinceCalc == 0 {
			recomputes++
		}
	})
	if recomputes < 2 {
		t.Fatalf("%d recomputes measured, want at least 2", recomputes)
	}
	if allocs != 0 {
		t.Errorf("latencyTracker recompute allocates %.1f/op, want 0", allocs)
	}
}
