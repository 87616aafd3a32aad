// Package rollout implements application version rollouts and the
// cross-version interaction experiment motivated by the paper (§4.4,
// §5.3). The paper's position, following the upgrade-failure study it
// cites as [78], is that rolling updates force different versions of an
// application to communicate, which causes the majority of update
// failures; atomic (blue/green) rollouts eliminate cross-version
// communication entirely, which in turn makes it safe to use unversioned
// wire formats.
//
// The package provides both the mechanism — a traffic Director that pins
// every request to one version and shifts weight gradually — and an
// experiment harness that replays an update under three policies:
//
//   - Rolling + unversioned codec: replicas are replaced one by one;
//     requests that cross versions decode garbage (counted as failures).
//     This is what would happen if one used the paper's fast wire format
//     WITHOUT atomic rollouts.
//   - Rolling + tagged codec: the status quo. Cross-version requests
//     survive because the format carries field tags — the flexibility the
//     baseline pays for on every single message.
//   - Atomic blue/green + unversioned codec: the paper's proposal. A
//     full new-version fleet starts alongside the old one and traffic
//     shifts gradually; no request ever crosses versions, so the
//     unversioned codec is safe.
package rollout

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/codec"
	"repro/internal/codec/tagged"
)

// Version identifies an application version in a rollout.
type Version string

// Director routes requests to application versions during a rollout,
// guaranteeing that a request, once assigned, is handled entirely within
// one version (the paper's atomicity property). Assignment is by request
// key hash, so a user's session stays on one version as weight shifts.
type Director struct {
	mu     sync.RWMutex
	old    Version
	new    Version
	weight float64 // fraction of the key space served by new
}

// NewDirector returns a director sending all traffic to old.
func NewDirector(old Version) *Director {
	return &Director{old: old}
}

// Begin starts shifting traffic to a new version.
func (d *Director) Begin(new Version) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.new = new
	d.weight = 0
}

// SetWeight sets the fraction of traffic served by the new version.
func (d *Director) SetWeight(w float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	d.weight = w
}

// Finish completes the rollout: the new version becomes the only version.
func (d *Director) Finish() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.new != "" {
		d.old = d.new
		d.new = ""
		d.weight = 0
	}
}

// Abort cancels the rollout, returning all traffic to the old version.
func (d *Director) Abort() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.new = ""
	d.weight = 0
}

// Pick returns the version that should process the request with the given
// key hash. Requests with equal keys get equal answers at equal weights,
// and a request never straddles versions.
func (d *Director) Pick(keyHash uint64) Version {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.new == "" {
		return d.old
	}
	// Map the key into [0,1) and compare against the weight.
	frac := float64(keyHash>>11) / float64(1<<53)
	if frac < d.weight {
		return d.new
	}
	return d.old
}

// --- The cross-version interaction experiment ---

// orderV1 is the request payload in application version 1.
type orderV1 struct {
	User     string
	Amount   int64
	Priority bool
}

// orderV2 is the same payload in version 2, which inserted a field — a
// routine, innocuous-looking schema change.
type orderV2 struct {
	User     string
	Coupon   string // new in v2
	Amount   int64
	Priority bool
}

// Tagged variants: field numbers make the same change safe.
type orderV1Tagged struct {
	User     string `tag:"1"`
	Amount   int64  `tag:"2"`
	Priority bool   `tag:"3"`
}

type orderV2Tagged struct {
	User     string `tag:"1"`
	Amount   int64  `tag:"2"`
	Priority bool   `tag:"3"`
	Coupon   string `tag:"4"`
}

// Policy selects an update strategy + wire format combination.
type Policy int

// The three policies compared by the experiment.
const (
	RollingUnversioned Policy = iota
	RollingTagged
	AtomicUnversioned
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RollingUnversioned:
		return "rolling+unversioned"
	case RollingTagged:
		return "rolling+tagged"
	case AtomicUnversioned:
		return "atomic+unversioned"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes the experiment.
type Config struct {
	// Replicas is the fleet size being updated.
	Replicas int
	// RequestsPerStep is the number of requests served between replica
	// replacements (rolling) or weight increments (atomic).
	RequestsPerStep int
	// Seed makes runs reproducible.
	Seed uint64
}

// Result summarizes one simulated update.
type Result struct {
	Policy       Policy
	Total        int     // requests served during the update
	CrossVersion int     // requests whose caller and callee versions differed
	Failed       int     // requests that returned wrong results or errors
	FailureRate  float64 // Failed / Total
	PeakFleet    int     // maximum simultaneous replicas (capacity cost)
}

// Run simulates updating a fleet from v1 to v2 under the given policy and
// returns failure statistics. Every request really is encoded with one
// version's schema and decoded with the other's when it crosses versions —
// the failures are genuine decode failures or corrupted fields, not coin
// flips.
func Run(p Policy, cfg Config) Result {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 10
	}
	if cfg.RequestsPerStep <= 0 {
		cfg.RequestsPerStep = 1000
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(p)))

	res := Result{Policy: p, PeakFleet: cfg.Replicas}

	// serve simulates one request: a caller replica serializes the order
	// with its version's schema; a callee replica deserializes with its
	// own. It reports whether the request succeeded with correct data.
	serve := func(callerV2, calleeV2 bool) bool {
		user := fmt.Sprintf("u%d", rng.IntN(10000))
		amount := int64(rng.IntN(100000)) + 1
		cross := callerV2 != calleeV2
		if cross {
			res.CrossVersion++
		}
		switch p {
		case RollingTagged:
			// Status quo: tagged encoding, any version mix.
			if callerV2 {
				data, err := tagged.Marshal(orderV2Tagged{User: user, Amount: amount, Priority: true, Coupon: "C"})
				if err != nil {
					return false
				}
				if calleeV2 {
					var out orderV2Tagged
					return tagged.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
				}
				var out orderV1Tagged
				return tagged.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
			}
			data, err := tagged.Marshal(orderV1Tagged{User: user, Amount: amount, Priority: true})
			if err != nil {
				return false
			}
			if calleeV2 {
				var out orderV2Tagged
				return tagged.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
			}
			var out orderV1Tagged
			return tagged.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority

		default:
			// Unversioned codec: schemas must match exactly.
			if callerV2 {
				data := codec.Marshal(orderV2{User: user, Coupon: "C", Amount: amount, Priority: true})
				if calleeV2 {
					var out orderV2
					return codec.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
				}
				var out orderV1
				return codec.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
			}
			data := codec.Marshal(orderV1{User: user, Amount: amount, Priority: true})
			if calleeV2 {
				var out orderV2
				return codec.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
			}
			var out orderV1
			return codec.Unmarshal(data, &out) == nil && out.User == user && out.Amount == amount && out.Priority
		}
	}

	switch p {
	case RollingUnversioned, RollingTagged:
		// Replace replicas one by one. Between replacements, requests pick
		// independent caller and callee replicas (a front tier calling a
		// back tier through a version-oblivious balancer).
		v2 := make([]bool, cfg.Replicas)
		for step := 0; step <= cfg.Replicas; step++ {
			for i := 0; i < cfg.RequestsPerStep; i++ {
				caller := v2[rng.IntN(cfg.Replicas)]
				callee := v2[rng.IntN(cfg.Replicas)]
				res.Total++
				if !serve(caller, callee) {
					res.Failed++
				}
			}
			if step < cfg.Replicas {
				v2[step] = true
			}
		}

	case AtomicUnversioned:
		// Blue/green: a full v2 fleet starts beside v1 (capacity cost),
		// and the director shifts traffic in steps. Caller and callee are
		// always in the same fleet.
		res.PeakFleet = 2 * cfg.Replicas
		d := NewDirector("v1")
		d.Begin("v2")
		steps := cfg.Replicas // same number of shift steps as rolling has replacement steps
		for step := 0; step <= steps; step++ {
			d.SetWeight(float64(step) / float64(steps))
			for i := 0; i < cfg.RequestsPerStep; i++ {
				v := d.Pick(rng.Uint64())
				isV2 := v == "v2"
				res.Total++
				if !serve(isV2, isV2) {
					res.Failed++
				}
			}
		}
		d.Finish()
	}

	if res.Total > 0 {
		res.FailureRate = float64(res.Failed) / float64(res.Total)
	}
	return res
}
