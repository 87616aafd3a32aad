// Package clock abstracts time for the runtime's scheduling decisions so
// tests can inject a controlled clock instead of sleeping. The data plane
// (rpc server delay injection), the resilience layer (the replica wait's
// grace, the circuit breakers' windows and cooldowns, the hedge-alarm
// wheel, which a conn arms only while it has a second replica to hedge
// to), and the chaos/sim harnesses all draw their time from a Clock;
// production code uses Real, deterministic tests use Fake.
//
// Only time that decides what happens next goes through a Clock.
// Measurements that feed telemetry (latency histograms) intentionally stay
// on real time: they describe what actually happened.
package clock

import (
	"sort"
	"sync"
	"time"
)

// A Timer is a started one-shot timer. C fires at most once; Stop reports
// whether it prevented the firing.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// A Clock tells time and makes timers.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// After returns a channel that receives the current time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a running one-shot timer.
	NewTimer(d time.Duration) Timer
	// AfterFunc runs f on its own goroutine once d has elapsed.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is the wall clock.
type Real struct{}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// Default is the process-wide wall clock. Code that takes an optional
// Clock falls back to it when handed nil.
var Default Clock = Real{}

// Or returns c, or Default when c is nil — the one-liner every Options
// struct with an optional Clock field uses.
func Or(c Clock) Clock {
	if c == nil {
		return Default
	}
	return c
}

// Fake is a manually advanced clock. Time only moves when Advance is
// called; timers and sleepers due at or before the new time fire, in
// deadline order. The zero value starts at the zero time; NewFakeAt picks
// the origin.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	clk      *Fake
	deadline time.Time
	ch       chan time.Time
	fn       func()
	fired    bool
	stopped  bool
}

// NewFake returns a Fake clock starting at the Unix epoch.
func NewFake() *Fake { return NewFakeAt(time.Unix(0, 0)) }

// NewFakeAt returns a Fake clock whose current time is origin.
func NewFakeAt(origin time.Time) *Fake { return &Fake{now: origin} }

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward by d and fires everything that came due,
// in deadline order. Functions registered with AfterFunc run on their own
// goroutines, matching time.AfterFunc.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var due []*fakeWaiter
	rest := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.deadline.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	f.waiters = rest
	sort.SliceStable(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, w := range due {
		w.fired = true
	}
	f.mu.Unlock()

	for _, w := range due {
		if w.fn != nil {
			go w.fn()
			continue
		}
		// Timer channels are buffered (cap 1) so delivery cannot block.
		w.ch <- now
	}
}

func (f *Fake) addWaiter(d time.Duration, fn func()) *fakeWaiter {
	w := &fakeWaiter{clk: f, fn: fn, ch: make(chan time.Time, 1)}
	f.mu.Lock()
	w.deadline = f.now.Add(d)
	if d <= 0 {
		w.fired = true
		now := f.now
		f.mu.Unlock()
		if fn != nil {
			go fn()
		} else {
			w.ch <- now
		}
		return w
	}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	return w
}

// Sleep implements Clock: it blocks until Advance moves time past d.
func (f *Fake) Sleep(d time.Duration) { <-f.addWaiter(d, nil).ch }

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time { return f.addWaiter(d, nil).ch }

// NewTimer implements Clock.
func (f *Fake) NewTimer(d time.Duration) Timer { return f.addWaiter(d, nil) }

// AfterFunc implements Clock.
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer { return f.addWaiter(d, fn) }

// Waiting reports how many timers and sleepers are pending, so tests can
// synchronize before advancing.
func (f *Fake) Waiting() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

func (w *fakeWaiter) C() <-chan time.Time { return w.ch }

// Stop implements Timer.
func (w *fakeWaiter) Stop() bool {
	w.clk.mu.Lock()
	defer w.clk.mu.Unlock()
	if w.fired || w.stopped {
		return false
	}
	w.stopped = true
	for i, x := range w.clk.waiters {
		if x == w {
			w.clk.waiters = append(w.clk.waiters[:i], w.clk.waiters[i+1:]...)
			break
		}
	}
	return true
}
