package rpc

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// This file implements the client side of overload protection: a
// per-replica circuit breaker. The paper (§5) argues the runtime should
// own graceful handling of sick replicas; a breaker gives the data plane a
// memory of recent outcomes, so callers stop sending work to a replica
// that keeps failing or shedding and instead probe it cheaply (Ping) until
// it recovers.

// BreakerState is a circuit breaker's current disposition.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: the replica looks healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the replica exceeded the failure threshold; requests
	// are routed elsewhere until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and a single probe is deciding
	// whether to close (probe succeeds) or re-open (probe fails).
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker tuning. Every deployment runs with these values.
const (
	// breakerWindow is the rolling window over which outcomes are counted;
	// outcomes older than the window are forgotten.
	breakerWindow = 5 * time.Second
	// breakerBuckets is the window's subdivision granularity.
	breakerBuckets = 5
	// breakerThreshold is the failure fraction within the window that trips
	// the breaker open.
	breakerThreshold = 0.5
	// breakerMinSamples is the minimum number of outcomes in the window
	// before the threshold applies, so one early failure cannot trip a cold
	// breaker.
	breakerMinSamples = 8
	// breakerCooldown is how long the breaker stays open before a half-open
	// probe is attempted. It also bounds the probe itself.
	breakerCooldown = time.Second
)

// breakerBucket accumulates outcomes for one time slice of the window.
type breakerBucket struct {
	start    time.Time
	ok, fail int
}

// A Breaker tracks one replica's recent call outcomes in a rolling window
// and trips open when the failure fraction reaches the threshold. It reads
// time only from its clock.
type Breaker struct {
	clk clock.Clock

	mu       sync.Mutex
	state    BreakerState
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	buckets  [breakerBuckets]breakerBucket
	cur      int
}

// NewBreaker returns a closed breaker that reads time from clk.
func NewBreaker(clk clock.Clock) *Breaker {
	return &Breaker{clk: clk}
}

// State returns the current state without advancing it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// rotateLocked advances the bucket ring so that the current bucket covers
// now, zeroing buckets that fell out of the window.
func (b *Breaker) rotateLocked(now time.Time) {
	const span = breakerWindow / breakerBuckets
	cur := &b.buckets[b.cur]
	if cur.start.IsZero() {
		cur.start = now
		return
	}
	for now.Sub(b.buckets[b.cur].start) >= span {
		next := (b.cur + 1) % breakerBuckets
		b.buckets[next] = breakerBucket{start: b.buckets[b.cur].start.Add(span)}
		b.cur = next
		if b.buckets[b.cur].start.Add(breakerWindow).Before(now) {
			// Far behind (idle period): restart the window at now.
			b.buckets[b.cur].start = now
		}
	}
}

// tallyLocked returns in-window totals.
func (b *Breaker) tallyLocked(now time.Time) (ok, fail int) {
	for i := range b.buckets {
		bk := &b.buckets[i]
		if !bk.start.IsZero() && now.Sub(bk.start) < breakerWindow {
			ok += bk.ok
			fail += bk.fail
		}
	}
	return ok, fail
}

// Report records one call outcome, updates the state machine, and returns
// the states before and after the outcome, so a caller can count trips and
// recoveries without asking for the state again.
func (b *Breaker) Report(failure bool) (from, to BreakerState) {
	now := b.clk.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	from = b.state

	switch b.state {
	case BreakerHalfOpen:
		// The probe's verdict decides the state outright.
		b.probing = false
		if failure {
			b.state = BreakerOpen
			b.openedAt = now
		} else {
			b.state = BreakerClosed
			b.buckets = [breakerBuckets]breakerBucket{}
			b.cur = 0
		}
		return from, b.state
	case BreakerOpen:
		// Stragglers from before the trip; the window already decided.
		return from, from
	}

	b.rotateLocked(now)
	if failure {
		b.buckets[b.cur].fail++
	} else {
		b.buckets[b.cur].ok++
	}
	ok, fail := b.tallyLocked(now)
	if total := ok + fail; total >= breakerMinSamples &&
		float64(fail) >= breakerThreshold*float64(total) {
		b.state = BreakerOpen
		b.openedAt = now
	}
	return from, b.state
}

// Allow reports whether a call (or probe) may be sent to the replica. In
// the open state it returns false until the cooldown elapses, then
// transitions to half-open and admits exactly one trial; further calls are
// rejected until that trial reports.
func (b *Breaker) Allow() bool {
	now := b.clk.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// A BreakerGroup maintains one Breaker per replica address. When a breaker
// opens and its cooldown elapses, the group launches a half-open liveness
// probe (the data plane's Ping) in the background; the replica stays
// quarantined until a probe succeeds. Real requests are never the trial.
type BreakerGroup struct {
	clk   clock.Clock
	probe func(ctx context.Context, addr string) error

	mu sync.Mutex
	m  map[string]*Breaker

	opened *metrics.Counter
	closed *metrics.Counter
	probes *metrics.Counter
}

// NewBreakerGroup returns an empty group whose breakers read time from clk
// and whose half-open trials call probe. Breakers are created lazily on the
// first Report for an address.
func NewBreakerGroup(clk clock.Clock, probe func(ctx context.Context, addr string) error) *BreakerGroup {
	return &BreakerGroup{
		clk:    clk,
		probe:  probe,
		m:      map[string]*Breaker{},
		opened: metrics.Default.Counter("rpc.breaker.opened"),
		closed: metrics.Default.Counter("rpc.breaker.closed"),
		probes: metrics.Default.Counter("rpc.breaker.probes"),
	}
}

// get returns the breaker for addr, or nil if none exists yet.
func (g *BreakerGroup) get(addr string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m[addr]
}

// State returns the breaker state for addr (closed if never reported).
func (g *BreakerGroup) State(addr string) BreakerState {
	if b := g.get(addr); b != nil {
		return b.State()
	}
	return BreakerClosed
}

// Report records one call outcome against addr's breaker and counts trips
// and recoveries.
func (g *BreakerGroup) Report(addr string, failure bool) {
	g.mu.Lock()
	b := g.m[addr]
	if b == nil {
		b = NewBreaker(g.clk)
		g.m[addr] = b
	}
	g.mu.Unlock()

	from, to := b.Report(failure)
	if from != to {
		switch to {
		case BreakerOpen:
			g.opened.Inc()
		case BreakerClosed:
			g.closed.Inc()
		}
	}
}

// Healthy reports whether routing should consider addr. A closed (or
// unknown) breaker is healthy. An open breaker is not; the first Healthy
// after its cooldown elapses wins the half-open slot and launches the probe
// off the request path.
func (g *BreakerGroup) Healthy(addr string) bool {
	b := g.get(addr)
	if b == nil || b.State() == BreakerClosed {
		return true
	}
	if b.Allow() {
		g.probes.Inc()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), breakerCooldown)
			defer cancel()
			g.Report(addr, g.probe(ctx, addr) != nil)
		}()
	}
	return false
}
