// Package routing holds the assignment math of slice-based affinity
// routing in the style of Slicer (paper §5.2): a routed component's calls
// for the same key go to the same replica, which improves cache locality.
// The manager builds an Assignment per routing push; the caller's
// data-plane conn (core.DataPlaneConn) picks among a call's candidates —
// the owners Find returns, or every replica of an unrouted call.
package routing

import (
	"fmt"
	"hash/fnv"
	"sort"
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
// data-plane conn that applies pushes drops stale ones
// (core.DataPlaneConn.UpdateRouting).
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

// ErrNoReplicas is the error of a call that finds its component's replica
// set empty for the whole of its wait.
var ErrNoReplicas = fmt.Errorf("routing: no healthy replicas")
