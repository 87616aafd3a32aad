package clock

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recorder counts Expire callbacks.
type recorder struct{ fired atomic.Int32 }

func (r *recorder) Expire() { r.fired.Add(1) }

// eventually polls cond until it holds or the test deadline budget runs
// out. The wheel's runner goroutine does its sweep asynchronously after a
// Fake Advance unblocks it, so tests synchronize on observable effects.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitRunnerWaiting blocks until the wheel's runner goroutine is parked on
// the fake clock, so the next Advance deterministically wakes it.
func waitRunnerWaiting(t *testing.T, f *Fake) {
	t.Helper()
	eventually(t, "wheel runner to park on the clock", func() bool { return f.Waiting() >= 1 })
}

func TestWheelFiresWithinOneTick(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	w.Schedule(&e, f.Now().Add(5*time.Millisecond), &r)
	if got := w.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	waitRunnerWaiting(t, f)
	// Ticks 1..4: before the deadline, nothing may fire.
	for i := 0; i < 4; i++ {
		f.Advance(time.Millisecond)
		waitRunnerWaiting(t, f)
		if n := r.fired.Load(); n != 0 {
			t.Fatalf("fired %d ticks early", 5-1-i)
		}
	}
	// Tick 5 reaches the deadline.
	f.Advance(time.Millisecond)
	eventually(t, "entry to fire at its deadline", func() bool { return r.fired.Load() == 1 })
	if got := w.Len(); got != 0 {
		t.Fatalf("Len after fire = %d, want 0", got)
	}
}

// A deadline inside a tick must fire at the first tick at or after it.
// Linked into the slot of the tick it falls in, the entry is not yet due
// when that tick is swept, and the slot is not visited again until the
// ring wraps (here 8 ticks later).
func TestWheelMidTickDeadline(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	w.Schedule(&e, f.Now().Add(5500*time.Microsecond), &r)
	waitRunnerWaiting(t, f)
	for i := 0; i < 5; i++ {
		f.Advance(time.Millisecond)
		waitRunnerWaiting(t, f)
		if n := r.fired.Load(); n != 0 {
			t.Fatalf("fired at %d ms, before the 5.5 ms deadline", i+1)
		}
	}
	f.Advance(time.Millisecond)
	eventually(t, "mid-tick deadline to fire at the next tick", func() bool { return r.fired.Load() == 1 })
}

func TestWheelStop(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	w.Schedule(&e, f.Now().Add(3*time.Millisecond), &r)
	waitRunnerWaiting(t, f)
	if !w.Stop(&e) {
		t.Fatal("Stop of a scheduled entry returned false")
	}
	if w.Stop(&e) {
		t.Fatal("second Stop returned true")
	}
	for i := 0; i < 6; i++ {
		f.Advance(time.Millisecond)
		// The wheel drained, so the runner exits after its first wake; stop
		// advancing once no one is listening.
		if f.Waiting() == 0 {
			break
		}
	}
	if n := r.fired.Load(); n != 0 {
		t.Fatalf("stopped entry fired %d times", n)
	}
	eventually(t, "runner to exit once the wheel drains", func() bool { return f.Waiting() == 0 })
}

func TestWheelEntryReuse(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	for round := int32(1); round <= 3; round++ {
		w.Schedule(&e, f.Now().Add(2*time.Millisecond), &r)
		waitRunnerWaiting(t, f)
		f.Advance(2 * time.Millisecond)
		eventually(t, "reused entry to fire", func() bool { return r.fired.Load() == round })
		// Let the runner observe the drained wheel and exit so the next
		// round restarts it from a clean state.
		if f.Waiting() > 0 {
			f.Advance(time.Millisecond)
		}
		eventually(t, "runner to exit between rounds", func() bool { return f.Waiting() == 0 })
	}
}

// A deadline already in the past must fire on the next tick — not wait a
// full revolution for its natural slot index to come around again.
func TestWheelPastDeadlineFiresNextTick(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	w.Schedule(&e, f.Now().Add(-10*time.Millisecond), &r)
	waitRunnerWaiting(t, f)
	f.Advance(time.Millisecond)
	eventually(t, "past-deadline entry to fire on the next tick", func() bool { return r.fired.Load() == 1 })
}

// Scheduling a deadline at a tick index the runner has already swept this
// revolution must clamp to the next unswept tick. Without the clamp the
// entry's natural slot is not visited again until the ring wraps (slots ×
// tick later).
func TestWheelTightDeadlineAfterSweep(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)

	// A far-out entry keeps the runner alive while time advances past the
	// victim's natural slot.
	var keeper recorder
	var ke WheelEntry
	w.Schedule(&ke, f.Now().Add(100*time.Millisecond), &keeper)
	waitRunnerWaiting(t, f)
	f.Advance(10 * time.Millisecond) // sweep line now at tick 10
	waitRunnerWaiting(t, f)

	// Tick 3 was swept seven ticks ago; its slot index (3) won't be visited
	// again until tick 11 — which is exactly the next tick, thanks to the
	// clamp. A correct wheel fires this entry one tick from now; a wheel
	// without the clamp would also pass here by accident (3 mod 8 = 3,
	// 11 mod 8 = 3), so pick tick 5 instead: 5 mod 8 = 5 is next visited at
	// tick 13, two ticks late.
	var r recorder
	var e WheelEntry
	w.Schedule(&e, time.Unix(0, int64(5*time.Millisecond)), &r)
	f.Advance(time.Millisecond)
	eventually(t, "already-swept deadline to fire on the next tick", func() bool { return r.fired.Load() == 1 })
	if keeper.fired.Load() != 0 {
		t.Fatal("keeper fired early")
	}
}

// Entries spread across several revolutions of a small ring must each fire
// within one tick of their deadline, including slot-index collisions.
func TestWheelManyEntriesAcrossRevolutions(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	const n = 40
	recs := make([]recorder, n)
	entries := make([]WheelEntry, n)
	for i := 0; i < n; i++ {
		// Deadlines 1..40ms: five revolutions of the 8-slot ring.
		w.Schedule(&entries[i], f.Now().Add(time.Duration(i+1)*time.Millisecond), &recs[i])
	}
	waitRunnerWaiting(t, f)
	for tick := 1; tick <= n; tick++ {
		f.Advance(time.Millisecond)
		i := tick - 1
		eventually(t, "due entry to fire", func() bool { return recs[i].fired.Load() == 1 })
		for j := tick; j < n; j++ {
			if recs[j].fired.Load() != 0 {
				t.Fatalf("entry %d fired %d ticks early", j, j+1-tick)
			}
		}
		if tick < n {
			waitRunnerWaiting(t, f)
		}
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("Len after all fired = %d, want 0", got)
	}
}

func TestWheelDoubleSchedulePanics(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	w.Schedule(&e, f.Now().Add(50*time.Millisecond), &r)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a linked entry did not panic")
		}
		w.Stop(&e)
	}()
	w.Schedule(&e, f.Now().Add(60*time.Millisecond), &r)
}

// runners returns the IDs of the goroutines running w's runner loop, read
// from a dump of every goroutine's stack. Counting these rather than
// runtime.NumGoroutine keeps goroutines of other tests, which may start or
// end at any time, out of the count.
func runners(w *Wheel) []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	frame := fmt.Sprintf("clock.(*Wheel).run(%p", w)
	var ids []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) {
			ids = append(ids, strings.Fields(g)[1]) // "goroutine <id> [state]:"
		}
	}
	return ids
}

// A drained wheel parks its runner instead of ending it, so refilling the
// wheel starts no goroutine; Close ends the parked runner, and a wheel
// scheduled after Close still fires and then lets its runner go.
func TestWheelRunnerParksUntilClose(t *testing.T) {
	f := NewFake()
	w := NewWheel(f, time.Millisecond, 8)
	var r recorder
	var e WheelEntry
	var first string
	for round := int32(1); round <= 3; round++ {
		w.Schedule(&e, f.Now().Add(time.Millisecond), &r)
		waitRunnerWaiting(t, f)
		f.Advance(time.Millisecond)
		eventually(t, "entry to fire", func() bool { return r.fired.Load() == round })
		eventually(t, "runner to leave the clock", func() bool { return f.Waiting() == 0 })
		time.Sleep(20 * time.Millisecond) // give a runner that would exit the time to
		ids := runners(w)
		if len(ids) != 1 {
			t.Fatalf("round %d: %d runner goroutines %v, want the one parked runner", round, len(ids), ids)
		}
		if round == 1 {
			first = ids[0]
		} else if ids[0] != first {
			t.Fatalf("round %d: runner is goroutine %s, want the parked goroutine %s", round, ids[0], first)
		}
	}
	w.Close()
	eventually(t, "closed wheel's runner to exit", func() bool { return len(runners(w)) == 0 })

	w.Schedule(&e, f.Now().Add(time.Millisecond), &r)
	waitRunnerWaiting(t, f)
	f.Advance(time.Millisecond)
	eventually(t, "entry scheduled after Close to fire", func() bool { return r.fired.Load() == 4 })
	eventually(t, "runner to exit once the closed wheel drains", func() bool { return len(runners(w)) == 0 })
}
