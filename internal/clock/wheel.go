package clock

import (
	"sync"
	"time"
)

// An Expirer receives a Wheel's expiry callback. The wheel takes an
// interface rather than a func value so callers embedding a WheelEntry can
// schedule a deadline without allocating a closure per request.
type Expirer interface{ Expire() }

// A Wheel is a hashed timing wheel: a fixed ring of slots, each holding an
// intrusive doubly-linked list of scheduled entries, advanced by a single
// ticking goroutine. Scheduling and stopping an entry are O(1), and one
// tick touches only the entries hashed into the slot indexes that came due
// — so a server tracking one deadline per in-flight request pays one
// runtime timer per tick for the whole process instead of one per request.
//
// Expiry is quantized to the tick: an entry fires within one tick of its
// deadline, never before it. That is the right trade for request
// deadlines, which are best-effort bounds rather than precise alarms.
//
// The runner goroutine exists only while entries are scheduled: the first
// Schedule on an idle wheel starts it, and it exits when the wheel drains.
// A Wheel draws its timers from an injected Clock, so deterministic tests
// drive expiry with a Fake clock's Advance.
type Wheel struct {
	clk  Clock
	tick time.Duration

	mu       sync.Mutex
	slots    []wheelEntry // ring of sentinel list heads
	count    int          // scheduled entries
	running  bool
	prevTick uint64 // last tick index the runner swept
}

// A WheelEntry is one scheduled callback. Entries are embeddable and
// reusable: after the entry has fired or been stopped, Schedule may link
// it again, so a pool of entries serves an unbounded stream of deadlines.
type WheelEntry struct{ e wheelEntry }

type wheelEntry struct {
	deadline time.Time
	x        Expirer
	// Intrusive list links; nil next means unlinked. Slot sentinels link
	// to themselves when empty.
	next, prev *wheelEntry
}

// NewWheel returns a wheel with the given tick resolution and slot count
// (rounded up to a power of two, minimum 8). clk may be nil for the wall
// clock.
func NewWheel(clk Clock, tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	n := 8
	for n < slots {
		n <<= 1
	}
	w := &Wheel{clk: Or(clk), tick: tick, slots: make([]wheelEntry, n)}
	for i := range w.slots {
		s := &w.slots[i]
		s.next, s.prev = s, s
	}
	return w
}

// Tick returns the wheel's expiry resolution.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Len reports how many entries are scheduled, for tests and introspection.
func (w *Wheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Schedule links e to call x.Expire once deadline has passed (within one
// tick). A deadline already in the past fires on the next tick, not
// inline, so callers may hold locks across Schedule. e must not currently
// be scheduled; entries are single-shot but reusable after they fire or
// are stopped.
func (w *Wheel) Schedule(e *WheelEntry, deadline time.Time, x Expirer) {
	en := &e.e
	en.deadline = deadline
	en.x = x
	w.mu.Lock()
	if en.next != nil {
		w.mu.Unlock()
		panic("clock: WheelEntry scheduled twice")
	}
	start := !w.running
	if start {
		w.running = true
		w.prevTick = w.tickOf(w.clk.Now())
	}
	// Never link into a slot index the runner has already swept this
	// revolution: a deadline at or before the sweep line waits a full
	// revolution before its slot comes around again. Clamping to the next
	// unswept tick keeps "fires within one tick" true for tight and
	// already-past deadlines alike.
	t := w.tickOf(deadline)
	if t <= w.prevTick {
		t = w.prevTick + 1
	}
	slot := &w.slots[int(t)&(len(w.slots)-1)]
	en.prev = slot.prev
	en.next = slot
	slot.prev.next = en
	slot.prev = en
	w.count++
	w.mu.Unlock()
	if start {
		go w.run()
	}
}

// Stop unlinks e, reporting whether it prevented the callback from firing.
// Stopping an entry that already fired (or was never scheduled) returns
// false. Stop never blocks on a firing callback.
func (w *Wheel) Stop(e *WheelEntry) bool {
	en := &e.e
	w.mu.Lock()
	defer w.mu.Unlock()
	if en.next == nil {
		return false
	}
	en.prev.next = en.next
	en.next.prev = en.prev
	en.next, en.prev = nil, nil
	en.x = nil
	w.count--
	return true
}

func (w *Wheel) tickOf(t time.Time) uint64 {
	ns := t.UnixNano()
	if ns < 0 {
		// Pre-epoch deadlines would wrap the uint64 conversion into a huge
		// tick index; treat them as tick 0 so Schedule's clamp fires them on
		// the next tick.
		return 0
	}
	return uint64(ns) / uint64(w.tick)
}

// run is the single ticking goroutine: each tick it visits the slot
// indexes that came due since the previous sweep and fires every entry
// whose deadline has passed. It exits once the wheel is empty; the next
// Schedule restarts it.
func (w *Wheel) run() {
	for {
		// Sleep, not After: After would allocate a timer and a channel on
		// every tick of a busy wheel.
		w.clk.Sleep(w.tick)
		now := w.clk.Now()
		var due []Expirer
		w.mu.Lock()
		from, to := w.prevTick, w.tickOf(now)
		if to > from {
			// Visit each slot index that elapsed in (from, to]; when the
			// advance spans a full revolution, every slot is visited once.
			if to-from > uint64(len(w.slots)) {
				from = to - uint64(len(w.slots))
			}
			for i := from + 1; i <= to; i++ {
				slot := &w.slots[int(i)&(len(w.slots)-1)]
				for en := slot.next; en != slot; {
					next := en.next
					if !en.deadline.After(now) {
						en.prev.next = en.next
						en.next.prev = en.prev
						en.next, en.prev = nil, nil
						w.count--
						due = append(due, en.x)
						en.x = nil
					}
					en = next
				}
			}
			w.prevTick = to
		}
		empty := w.count == 0
		if empty {
			w.running = false
		}
		w.mu.Unlock()
		for _, x := range due {
			x.Expire()
		}
		if empty {
			return
		}
	}
}
