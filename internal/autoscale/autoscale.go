// Package autoscale implements the replica autoscaler, this repository's
// substitute for the Horizontal Pod Autoscaler the paper's prototype uses
// on GKE (§6.1). Given the aggregate load on a component group, it decides
// how many replicas the group should run, with hysteresis so transient dips
// do not thrash replica counts.
package autoscale

import (
	"math"
	"sync"
	"time"
)

// Config parameterizes scaling decisions for one group.
type Config struct {
	// MinReplicas and MaxReplicas bound the replica count.
	MinReplicas int
	MaxReplicas int
	// TargetLoadPerReplica is the load (e.g. calls/sec) one replica should
	// carry at steady state. The desired replica count is
	// ceil(totalLoad / TargetLoadPerReplica), as in the HPA formula.
	TargetLoadPerReplica float64
	// ScaleDownDelay is how long load must remain below the scale-down
	// threshold before replicas are removed. Scale-ups are immediate.
	ScaleDownDelay time.Duration
}

// tolerance suppresses scaling when the desired count is within ±tolerance
// (fraction) of current capacity, mirroring the HPA's 10% dead band.
const tolerance = 0.1

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MinReplicas <= 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 64
	}
	if c.MaxReplicas < c.MinReplicas {
		c.MaxReplicas = c.MinReplicas
	}
	if c.TargetLoadPerReplica <= 0 {
		c.TargetLoadPerReplica = 100
	}
	if c.ScaleDownDelay <= 0 {
		c.ScaleDownDelay = 30 * time.Second
	}
	return c
}

// Autoscaler tracks one group's load history and recommends replica counts.
// It is safe for concurrent use.
type Autoscaler struct {
	cfg Config

	mu          sync.Mutex
	lowSince    time.Time // earliest time load has continuously suggested scale-down
	lastDesired int
}

// New returns an autoscaler with the given configuration.
func New(cfg Config) *Autoscaler {
	return &Autoscaler{cfg: cfg.withDefaults()}
}

// Config returns the autoscaler's effective (defaulted) configuration.
func (a *Autoscaler) Config() Config { return a.cfg }

// Desired returns the recommended replica count given the current count and
// the group's total observed load at time now.
func (a *Autoscaler) Desired(current int, totalLoad float64, now time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()

	if current < a.cfg.MinReplicas {
		return a.cfg.MinReplicas
	}

	raw := int(math.Ceil(totalLoad / a.cfg.TargetLoadPerReplica))
	desired := clamp(raw, a.cfg.MinReplicas, a.cfg.MaxReplicas)

	// Dead band: if within tolerance of current capacity, hold.
	capacity := float64(current) * a.cfg.TargetLoadPerReplica
	if capacity > 0 {
		ratio := totalLoad / capacity
		if ratio > 1-tolerance && ratio < 1+tolerance {
			a.lowSince = time.Time{}
			a.lastDesired = current
			return current
		}
	}

	if desired > current {
		// Scale up immediately.
		a.lowSince = time.Time{}
		a.lastDesired = desired
		return desired
	}
	if desired < current {
		// Scale down only after sustained low load.
		if a.lowSince.IsZero() {
			a.lowSince = now
		}
		if now.Sub(a.lowSince) >= a.cfg.ScaleDownDelay {
			a.lastDesired = desired
			return desired
		}
		a.lastDesired = current
		return current
	}
	a.lowSince = time.Time{}
	a.lastDesired = current
	return current
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
