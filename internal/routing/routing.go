// Package routing implements replica selection for component method calls:
// round-robin balancing for unrouted components, and slice-based affinity
// routing in the style of Slicer (paper §5.2) for routed components, where
// requests for the same key are directed to the same replica to improve
// cache locality.
package routing

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// KeyHash hashes a routing key to the 64-bit key space used by
// assignments. Both the generated Shard functions and tests use it.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	v := h.Sum64()
	if v == 0 {
		v = 1 // zero means "unrouted" on the wire
	}
	return v
}

// A Slice assigns one contiguous range of the key space, starting at Start
// and ending just before the next slice's Start, to a set of replicas.
type Slice struct {
	Start    uint64   `tag:"1"`
	Replicas []string `tag:"2"`
}

// An Assignment maps the entire 64-bit key space onto replicas, as a sorted
// list of slices. The first slice must start at 0 so every key is covered.
// Assignments carry the routing epoch of the push that installed them; the
// data-plane conn that applies pushes drops stale ones before a balancer
// sees them (core.DataPlaneConn.UpdateRouting).
type Assignment struct {
	Version uint64  `tag:"1"`
	Slices  []Slice `tag:"2"`
}

// Validate checks the assignment's structural invariants: slices sorted,
// first at zero, no empty replica sets, no duplicate starts.
func (a *Assignment) Validate() error {
	if len(a.Slices) == 0 {
		return fmt.Errorf("routing: assignment v%d has no slices", a.Version)
	}
	if a.Slices[0].Start != 0 {
		return fmt.Errorf("routing: assignment v%d does not cover key 0", a.Version)
	}
	for i, s := range a.Slices {
		if len(s.Replicas) == 0 {
			return fmt.Errorf("routing: assignment v%d slice %d has no replicas", a.Version, i)
		}
		if i > 0 && a.Slices[i-1].Start >= s.Start {
			return fmt.Errorf("routing: assignment v%d slices unsorted at %d", a.Version, i)
		}
	}
	return nil
}

// Find returns the replicas responsible for the given key hash.
func (a *Assignment) Find(key uint64) []string {
	// Binary search for the last slice with Start <= key.
	i := sort.Search(len(a.Slices), func(i int) bool { return a.Slices[i].Start > key })
	if i == 0 {
		return nil // invalid assignment; Validate would have caught it
	}
	return a.Slices[i-1].Replicas
}

// EqualSlices builds an assignment dividing the key space into equal-width
// slices, one per replica per pass, assigning slices round-robin. With
// slicesPerReplica > 1 the key space interleaves replicas, which smooths
// load when key popularity is skewed (the same trick Slicer uses).
func EqualSlices(version uint64, replicas []string, slicesPerReplica int) Assignment {
	if slicesPerReplica <= 0 {
		slicesPerReplica = 4
	}
	n := len(replicas)
	if n == 0 {
		return Assignment{Version: version}
	}
	sorted := append([]string(nil), replicas...)
	sort.Strings(sorted)
	total := n * slicesPerReplica
	width := ^uint64(0) / uint64(total)
	slices := make([]Slice, total)
	for i := 0; i < total; i++ {
		slices[i] = Slice{
			Start:    uint64(i) * width,
			Replicas: []string{sorted[i%n]},
		}
	}
	slices[0].Start = 0
	return Assignment{Version: version, Slices: slices}
}

// A Balancer picks a replica address for one call.
type Balancer interface {
	// Pick returns the address to call. shard is the routing key hash;
	// hasShard reports whether the method is routed. Pick returns an error
	// if no replica is available.
	Pick(shard uint64, hasShard bool) (string, error)
	// Update replaces the replica set (and, for affinity balancers, the
	// assignment).
	Update(replicas []string, assignment *Assignment)
}

// ErrNoReplicas is returned by balancers with an empty replica set.
var ErrNoReplicas = fmt.Errorf("routing: no healthy replicas")

// RoundRobin cycles through replicas.
type RoundRobin struct {
	mu       sync.RWMutex
	replicas []string
	next     atomic.Uint64
}

// NewRoundRobin returns a round-robin balancer over the given replicas.
func NewRoundRobin(replicas ...string) *RoundRobin {
	rr := &RoundRobin{}
	rr.Update(replicas, nil)
	return rr
}

// Pick implements Balancer.
func (r *RoundRobin) Pick(shard uint64, hasShard bool) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.replicas) == 0 {
		return "", ErrNoReplicas
	}
	i := r.next.Add(1)
	return r.replicas[i%uint64(len(r.replicas))], nil
}

// Update implements Balancer.
func (r *RoundRobin) Update(replicas []string, _ *Assignment) {
	cp := append([]string(nil), replicas...)
	sort.Strings(cp)
	r.mu.Lock()
	r.replicas = cp
	r.mu.Unlock()
}

// Affinity routes sharded calls using an assignment and falls back to
// round-robin for unsharded calls (or when no assignment is installed).
type Affinity struct {
	mu         sync.RWMutex
	assignment *Assignment
	fallback   *RoundRobin
	next       atomic.Uint64 // rotates among a slice's replicas
}

// NewAffinity returns an affinity balancer with the given initial replica
// set and no assignment.
func NewAffinity(replicas ...string) *Affinity {
	return &Affinity{fallback: NewRoundRobin(replicas...)}
}

// Pick implements Balancer.
func (a *Affinity) Pick(shard uint64, hasShard bool) (string, error) {
	if hasShard {
		a.mu.RLock()
		asgn := a.assignment
		a.mu.RUnlock()
		if asgn != nil {
			if reps := asgn.Find(shard); len(reps) > 0 {
				if len(reps) == 1 {
					return reps[0], nil
				}
				return reps[a.next.Add(1)%uint64(len(reps))], nil
			}
		}
	}
	return a.fallback.Pick(shard, hasShard)
}

// Owners returns the replicas the installed assignment maps shard to, or
// nil when no assignment is installed. Colocated callers use it to decide
// whether a routed call's key maps to themselves (local fast path) or to a
// sibling replica (data plane), so affinity holds even when caller and
// callee share a process.
func (a *Affinity) Owners(shard uint64) []string {
	a.mu.RLock()
	asgn := a.assignment
	a.mu.RUnlock()
	if asgn == nil {
		return nil
	}
	return asgn.Find(shard)
}

// Update implements Balancer. A nil assignment retains the previous one
// unless the replica set became empty. Update applies whatever it is
// given: pushes reach it in epoch order, fenced by the conn that applies
// them.
func (a *Affinity) Update(replicas []string, assignment *Assignment) {
	a.mu.Lock()
	if assignment != nil {
		a.assignment = assignment
	}
	if len(replicas) == 0 {
		a.assignment = nil
	}
	a.mu.Unlock()
	a.fallback.Update(replicas, nil)
}

// HealthAware wraps a Balancer and skips replicas an external health
// signal (typically a circuit breaker) reports sick. Selection stays
// delegated: HealthAware re-picks from the inner balancer a bounded number
// of times looking for a healthy replica. If every candidate is sick it
// fails open and returns the last pick anyway — a wrong health signal must
// degrade to the old behavior, never to a self-inflicted total outage.
type HealthAware struct {
	inner   Balancer
	healthy func(addr string) bool
}

// NewHealthAware wraps inner so Pick prefers replicas for which healthy
// returns true. A nil healthy func disables filtering.
func NewHealthAware(inner Balancer, healthy func(addr string) bool) *HealthAware {
	return &HealthAware{inner: inner, healthy: healthy}
}

// healthAwareRepicks bounds how many alternates Pick asks the inner
// balancer for before failing open.
const healthAwareRepicks = 8

// Pick implements Balancer.
func (h *HealthAware) Pick(shard uint64, hasShard bool) (string, error) {
	addr, err := h.inner.Pick(shard, hasShard)
	if err != nil || h.healthy == nil || h.healthy(addr) {
		return addr, err
	}
	for i := 0; i < healthAwareRepicks; i++ {
		next, err := h.inner.Pick(shard, hasShard)
		if err != nil {
			break
		}
		if h.healthy(next) {
			return next, nil
		}
		addr = next
	}
	return addr, nil
}

// Update implements Balancer by delegating to the inner balancer.
func (h *HealthAware) Update(replicas []string, assignment *Assignment) {
	h.inner.Update(replicas, assignment)
}
