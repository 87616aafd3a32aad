package autoscale

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000000, 0)

func TestScaleUpImmediate(t *testing.T) {
	a := New(Config{MinReplicas: 1, MaxReplicas: 10, TargetLoadPerReplica: 100})
	if got := a.Desired(1, 450, t0); got != 5 {
		t.Errorf("desired = %d, want 5", got)
	}
}

func TestScaleDownDelayed(t *testing.T) {
	a := New(Config{MinReplicas: 1, MaxReplicas: 10, TargetLoadPerReplica: 100, ScaleDownDelay: 10 * time.Second})
	// Load drops: no immediate scale-down.
	if got := a.Desired(5, 100, t0); got != 5 {
		t.Errorf("immediate scale-down: desired = %d", got)
	}
	// Still low 5s later: hold.
	if got := a.Desired(5, 100, t0.Add(5*time.Second)); got != 5 {
		t.Errorf("early scale-down: desired = %d", got)
	}
	// Low for the full delay: scale down.
	if got := a.Desired(5, 100, t0.Add(11*time.Second)); got != 1 {
		t.Errorf("after delay: desired = %d, want 1", got)
	}
}

func TestScaleDownCanceledBySpike(t *testing.T) {
	a := New(Config{MinReplicas: 1, MaxReplicas: 10, TargetLoadPerReplica: 100, ScaleDownDelay: 10 * time.Second})
	a.Desired(5, 100, t0)
	// Spike resets the scale-down clock.
	if got := a.Desired(5, 900, t0.Add(5*time.Second)); got != 9 {
		t.Errorf("spike: desired = %d, want 9", got)
	}
	// Low again, but the timer restarted.
	if got := a.Desired(9, 100, t0.Add(6*time.Second)); got != 9 {
		t.Errorf("restarted timer: desired = %d", got)
	}
}

func TestDeadBand(t *testing.T) {
	a := New(Config{MinReplicas: 1, MaxReplicas: 10, TargetLoadPerReplica: 100})
	// 4 replicas, load 410: ratio 1.025 is inside the ±10% band -> hold.
	if got := a.Desired(4, 410, t0); got != 4 {
		t.Errorf("dead band: desired = %d", got)
	}
	// Load 450: ratio 1.125 is outside the band -> scale up to 5.
	if got := a.Desired(4, 450, t0); got != 5 {
		t.Errorf("outside dead band: desired = %d, want 5", got)
	}
}

func TestBounds(t *testing.T) {
	a := New(Config{MinReplicas: 2, MaxReplicas: 4, TargetLoadPerReplica: 100})
	if got := a.Desired(2, 100000, t0); got != 4 {
		t.Errorf("max bound: desired = %d", got)
	}
	if got := a.Desired(1, 0, t0); got != 2 {
		t.Errorf("min bound: desired = %d", got)
	}
}

func TestDefaults(t *testing.T) {
	a := New(Config{})
	cfg := a.Config()
	if cfg.MinReplicas != 1 || cfg.MaxReplicas < 1 || cfg.TargetLoadPerReplica <= 0 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestZeroLoadHoldsUntilDelay(t *testing.T) {
	a := New(Config{MinReplicas: 1, MaxReplicas: 8, TargetLoadPerReplica: 50, ScaleDownDelay: time.Minute})
	if got := a.Desired(8, 0, t0); got != 8 {
		t.Errorf("zero load scaled down immediately: %d", got)
	}
	if got := a.Desired(8, 0, t0.Add(2*time.Minute)); got != 1 {
		t.Errorf("zero load after delay: %d, want 1", got)
	}
}
