package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// reportN reports n outcomes of one kind to b.
func reportN(b *Breaker, n int, failure bool) {
	for i := 0; i < n; i++ {
		b.Report(failure)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := clock.NewFake()
	b := NewBreaker(clk)

	reportN(b, 4, false)
	reportN(b, 3, true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 4 ok / 3 fail = %v, want closed", got)
	}
	// 8 samples, 4 failures: exactly at the 0.5 threshold.
	if from, to := b.Report(true); from != BreakerClosed || to != BreakerOpen {
		t.Fatalf("tripping report moved %v → %v, want closed → open", from, to)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before the cooldown")
	}

	// The cooldown is 1 s.
	clk.Advance(time.Second - time.Nanosecond)
	if b.Allow() {
		t.Fatal("breaker admitted a trial 1ns before its 1s cooldown elapsed")
	}
	clk.Advance(time.Nanosecond)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open trial after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown trial = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// Trial succeeds: closed, with a fresh window.
	if from, to := b.Report(false); from != BreakerHalfOpen || to != BreakerClosed {
		t.Fatalf("successful trial moved %v → %v, want half-open → closed", from, to)
	}
	reportN(b, 3, true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("window not reset after recovery: 3 failures tripped to %v", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := clock.NewFake()
	b := NewBreaker(clk)
	reportN(b, breakerMinSamples, true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	clk.Advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("half-open trial not admitted")
	}
	if from, to := b.Report(true); from != BreakerHalfOpen || to != BreakerOpen {
		t.Fatalf("failed trial moved %v → %v, want half-open → open", from, to)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call before a second cooldown")
	}
	clk.Advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("second cooldown did not admit a new trial")
	}
}

func TestBreakerMinSamplesGate(t *testing.T) {
	// The threshold applies from the eighth outcome in the window.
	b := NewBreaker(clock.NewFake())
	reportN(b, 7, true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state with 7 failures (min samples 8) = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
	b.Report(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state with 8 failures (min samples 8) = %v, want open", got)
	}
}

func TestBreakerWindowForgetsOldOutcomes(t *testing.T) {
	// Seven failures, then one more after a pause: the eighth trips the
	// breaker only while the first seven are still inside the 5 s window.
	for _, tc := range []struct {
		pause time.Duration
		want  BreakerState
	}{
		{5*time.Second - time.Nanosecond, BreakerOpen},
		{5 * time.Second, BreakerClosed},
		{15 * time.Second, BreakerClosed}, // idle far past the window
	} {
		clk := clock.NewFake()
		b := NewBreaker(clk)
		reportN(b, breakerMinSamples-1, true)
		clk.Advance(tc.pause)
		b.Report(true)
		if got := b.State(); got != tc.want {
			t.Errorf("failure %v after %d others: state %v, want %v",
				tc.pause, breakerMinSamples-1, got, tc.want)
		}
	}
}

func TestBreakerWindowSlidesByBucket(t *testing.T) {
	// The window slides in 1 s buckets: at 5 s the successes of its first
	// bucket age out while the failures of its second still count.
	clk := clock.NewFake()
	b := NewBreaker(clk)
	reportN(b, 9, false)
	clk.Advance(time.Second)
	reportN(b, 7, true)
	clk.Advance(4*time.Second - time.Nanosecond)
	b.Report(true) // 8 failures against 9 successes
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state with 8 of 17 outcomes failed = %v, want closed", got)
	}
	clk.Advance(time.Nanosecond)
	b.Report(true) // the 9 successes have aged out
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state once the first bucket aged out = %v, want open", got)
	}
}

func TestBreakerStragglersIgnoredWhileOpen(t *testing.T) {
	b := NewBreaker(clock.NewFake())
	reportN(b, breakerMinSamples, true)
	// In-flight calls from before the trip finish after it; their outcomes
	// must not perturb the open state (only the half-open trial decides).
	for _, failure := range []bool{false, false, true} {
		if from, to := b.Report(failure); from != BreakerOpen || to != BreakerOpen {
			t.Fatalf("straggler moved %v → %v, want open → open", from, to)
		}
	}
}

func TestBreakerGroupProbeRecovery(t *testing.T) {
	clk := clock.NewFake()
	var probeFail atomic.Bool
	probeFail.Store(true)
	var probeCalls atomic.Int64
	g := NewBreakerGroup(clk, func(ctx context.Context, addr string) error {
		probeCalls.Add(1)
		if probeFail.Load() {
			return errors.New("still sick")
		}
		return nil
	})

	if !g.Healthy("a") {
		t.Fatal("unknown address reported unhealthy")
	}
	for i := 0; i < breakerMinSamples; i++ {
		g.Report("a", true)
	}
	if got := g.State("a"); got != BreakerOpen {
		t.Fatalf("state after %d/%d failures = %v, want open", breakerMinSamples, breakerMinSamples, got)
	}
	if g.Healthy("a") {
		t.Fatal("open breaker reported healthy")
	}
	if !g.Healthy("b") {
		t.Fatal("unrelated address reported unhealthy")
	}

	// While the probe keeps failing the replica must stay quarantined:
	// each cooldown expiry admits exactly one probe, the probe fails, and
	// the breaker reopens without ever reporting healthy.
	for round := int64(1); round <= 3; round++ {
		clk.Advance(breakerCooldown)
		if g.Healthy("a") {
			t.Fatal("replica reported healthy while probe fails")
		}
		if g.Healthy("a") {
			t.Fatal("replica reported healthy while its probe is in flight")
		}
		// The probe runs off the request path; wait for its verdict to
		// land (half-open trial resolved, breaker open again).
		waitFor(t, func() bool { return probeCalls.Load() == round && g.State("a") == BreakerOpen })
	}

	// Probe starts succeeding: the breaker must close.
	probeFail.Store(false)
	clk.Advance(breakerCooldown)
	if g.Healthy("a") {
		t.Fatal("replica reported healthy before the probe's verdict")
	}
	waitFor(t, func() bool { return g.State("a") == BreakerClosed })
	if !g.Healthy("a") {
		t.Fatal("closed breaker reported unhealthy")
	}
	if got := probeCalls.Load(); got != 4 {
		t.Errorf("%d probes over 4 cooldowns, want one each", got)
	}
}

func TestBreakerGroupCountsTransitions(t *testing.T) {
	// The opened and closed counters move once per trip and once per
	// recovery, never for an outcome that leaves the state where it was.
	clk := clock.NewFake()
	g := NewBreakerGroup(clk, func(context.Context, string) error { return nil })
	opened, closed := g.opened.Value(), g.closed.Value()
	check := func(when string, wantOpened, wantClosed uint64) {
		t.Helper()
		if got := g.opened.Value() - opened; got != wantOpened {
			t.Errorf("%s: opened counted %d, want %d", when, got, wantOpened)
		}
		if got := g.closed.Value() - closed; got != wantClosed {
			t.Errorf("%s: closed counted %d, want %d", when, got, wantClosed)
		}
	}

	g.Report("a", false)
	check("a success while closed", 0, 0)
	for i := 0; i < breakerMinSamples; i++ {
		g.Report("a", true)
	}
	check("the trip", 1, 0)
	g.Report("a", true)
	g.Report("a", false)
	check("stragglers while open", 1, 0)

	clk.Advance(breakerCooldown)
	g.Healthy("a") // launches the probe, which succeeds
	waitFor(t, func() bool { return g.closed.Value() != closed })
	check("the recovery", 1, 1)
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
