package rpc

import (
	"context"
	"sync"

	"repro/internal/metrics"
)

// admitWaiter is one request parked in the admission queue. grant is
// buffered so the releaser never blocks: it receives true when a slot is
// granted, false when the waiter is evicted by a higher-priority arrival.
type admitWaiter struct {
	grant chan bool
	rank  int
	hedge bool
}

// admitter is the server's priority-aware admission gate: a counting
// semaphore over executing handlers plus a bounded wait queue ordered by
// shed rank. Under pressure it refuses the least valuable work first
// (paper §5: overload handling belongs in the runtime):
//
//   - a freed slot goes to the highest-ranked waiter, FIFO within a rank;
//   - when the queue is full, a new arrival evicts a strictly lower-ranked
//     waiter (preferring hedged duplicates, which by construction have a
//     twin still running elsewhere) rather than being refused itself;
//   - a waiter whose caller goes away (deadline, cancel — including a
//     hedge whose primary already answered) leaves the queue unexecuted.
type admitter struct {
	maxQueue int

	mu     sync.Mutex
	free   int
	queues [numPriorities][]*admitWaiter // indexed by shed rank, FIFO each
	queued int

	// hedgeDropped counts queued hedged duplicates that left the queue
	// unexecuted (evicted or abandoned by their caller).
	hedgeDropped *metrics.Counter
}

func newAdmitter(maxInflight, maxQueue int, hedgeDropped *metrics.Counter) *admitter {
	return &admitter{
		maxQueue:     maxQueue,
		free:         maxInflight,
		hedgeDropped: hedgeDropped,
	}
}

// admit blocks until the request may execute, or reports that it must be
// shed. A false return always refers to the calling request itself;
// evicted waiters observe their own admit call return false.
func (a *admitter) admit(ctx context.Context, meta CallMeta) bool {
	rank := meta.Priority.shedRank()
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return true
	}
	if a.maxQueue <= 0 || ctx.Err() != nil {
		a.mu.Unlock()
		return false
	}
	if a.queued >= a.maxQueue {
		// Full queue: make room by evicting a strictly lower-ranked
		// waiter; if nothing ranks below this request, shed it instead.
		if !a.evictBelowLocked(rank) {
			a.mu.Unlock()
			return false
		}
	}
	w := &admitWaiter{grant: make(chan bool, 1), rank: rank, hedge: meta.Hedge}
	a.queues[rank] = append(a.queues[rank], w)
	a.queued++
	a.mu.Unlock()

	select {
	case ok := <-w.grant:
		if !ok {
			return false // evicted by a higher-priority arrival
		}
		if ctx.Err() != nil {
			// Granted, but the caller is already gone: hand the slot on.
			a.release()
			return false
		}
		return true
	case <-ctx.Done():
		a.mu.Lock()
		if a.removeLocked(w) {
			a.mu.Unlock()
			if w.hedge {
				a.hedgeDropped.Inc()
			}
			return false
		}
		a.mu.Unlock()
		// Lost the race with a releaser: a verdict is already in the
		// channel. Consume it and return any granted slot.
		if ok := <-w.grant; ok {
			a.release()
		}
		return false
	}
}

// release returns an execution slot, handing it to the highest-ranked
// queued waiter if any.
func (a *admitter) release() {
	a.mu.Lock()
	for rank := numPriorities - 1; rank >= 0; rank-- {
		if q := a.queues[rank]; len(q) > 0 {
			w := q[0]
			a.queues[rank] = q[1:]
			a.queued--
			a.mu.Unlock()
			w.grant <- true
			return
		}
	}
	a.free++
	a.mu.Unlock()
}

// evictBelowLocked evicts one waiter of strictly lower rank than rank,
// preferring a hedged duplicate in the lowest occupied rank, else that
// rank's oldest waiter. It reports whether an eviction happened.
func (a *admitter) evictBelowLocked(rank int) bool {
	for r := 0; r < rank; r++ {
		q := a.queues[r]
		if len(q) == 0 {
			continue
		}
		victim := 0
		for i, w := range q {
			if w.hedge {
				victim = i
				break
			}
		}
		w := q[victim]
		a.queues[r] = append(q[:victim], q[victim+1:]...)
		a.queued--
		if w.hedge {
			a.hedgeDropped.Inc()
		}
		w.grant <- false
		return true
	}
	return false
}

// removeLocked unlinks w from its queue, reporting false if w is no longer
// queued (a releaser or evictor already decided its fate).
func (a *admitter) removeLocked(w *admitWaiter) bool {
	q := a.queues[w.rank]
	for i, x := range q {
		if x == w {
			a.queues[w.rank] = append(q[:i], q[i+1:]...)
			a.queued--
			return true
		}
	}
	return false
}
