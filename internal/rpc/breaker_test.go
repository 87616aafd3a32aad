package rpc

import (
	"context"
	"errors"
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

func TestBreakerProbeReportsVerdict(t *testing.T) {
	// Probe runs the half-open trial Allow admitted: a failing ping
	// reopens the breaker, a succeeding one closes it, and the ping's
	// context is bounded by the 1 s cooldown.
	clk := clock.NewFake()
	b := NewBreaker(clk)
	reportN(b, breakerMinSamples, true)
	sick := errors.New("still sick")
	for _, tc := range []struct {
		err  error
		want BreakerState
	}{{sick, BreakerOpen}, {nil, BreakerClosed}} {
		clk.Advance(breakerCooldown)
		if !b.Allow() {
			t.Fatal("cooldown elapsed but no trial admitted")
		}
		from, to := b.Probe(func(ctx context.Context) error {
			dl, ok := ctx.Deadline()
			if !ok || time.Until(dl) > time.Second {
				t.Errorf("probe deadline %v (set %v), want within the 1s cooldown", time.Until(dl), ok)
			}
			return tc.err
		})
		if from != BreakerHalfOpen || to != tc.want {
			t.Fatalf("probe returning %v moved %v → %v, want half-open → %v", tc.err, from, to, tc.want)
		}
	}
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
