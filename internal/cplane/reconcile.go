package cplane

// Reconcilers: pure functions from an observed State (plus a decision
// oracle or event) to a desired State. They never touch envelopes, draw
// epochs, or sleep — Diff turns observed-vs-desired into actions, and the
// manager's actuator executes them. Purity is the point: each control
// loop's decision logic is unit-testable with plain values.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/callgraph"
	"repro/internal/placement"
)

// DesiredFunc is the autoscaling oracle: given a group, its current
// replica count (live + starting), and its aggregate healthy load, it
// returns the replica count the group should have. The manager supplies
// autoscale.Autoscaler.Desired; tests supply decision tables. The oracle
// may keep internal hysteresis state (scale-down delay), which is why it
// is injected rather than recomputed from the snapshot.
type DesiredFunc func(group string, current int, load float64, now time.Time) int

// ReconcileScale is the autoscale + health reconciler. For every group but
// "main" and the empty on-demand ones it marks stale replicas unhealthy
// (no load report in st within staleAfter), asks the oracle for a desired
// count given the group's load in st, raises Starting to scale up, and
// marks the newest replicas Stopping to scale down. It returns the desired
// state; Diff against the observed snapshot yields the starts, stops, and
// routing pushes.
func ReconcileScale(obs *State, st *Status, desired DesiredFunc, now time.Time, staleAfter time.Duration) *State {
	des := obs.Clone()
	for _, name := range des.SortedGroupNames() {
		g := des.Groups[name]
		if name == "main" || len(g.Replicas)+g.Starting == 0 {
			continue // main is the driver; empty groups start on demand
		}

		// Health: mark stale replicas unhealthy so routing skips them.
		var totalRate float64
		for id, r := range g.Replicas {
			rate, last := st.Load(id)
			if now.Sub(last) > staleAfter {
				r.Healthy = false
			}
			if r.Healthy && r.Ready && !r.Stopping {
				totalRate += rate
			}
		}

		current := len(g.Replicas) + g.Starting
		want := desired(name, current, totalRate, now)
		g.Target = want
		if want > current {
			g.Starting += want - current
		} else if want < current && len(g.Replicas) > want {
			// Stop the newest replicas first.
			ids := make([]string, 0, len(g.Replicas))
			for id := range g.Replicas {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			stopped := 0
			for i := len(ids) - 1; i >= 0 && len(ids)-stopped > want; i-- {
				r := g.Replicas[ids[i]]
				if !r.Stopping {
					r.Stopping = true
					stopped++
				}
			}
		}
	}
	return des
}

// ReconcileRestart is the crash-restart policy: called after a replica of
// the group exited. A deliberate exit (manager stopping, replica marked
// Stopping, clean exit) never restarts; a crash restarts until the group's
// restart budget is exhausted, and only if the group hosts components
// worth serving. Returns the desired state with one more replica starting,
// or nil when no restart is warranted.
func ReconcileRestart(obs *State, group string, deliberate bool, maxRestarts int) *State {
	g := obs.Groups[group]
	if g == nil {
		return nil
	}
	if deliberate || g.Restarts >= maxRestarts || len(g.Components) == 0 {
		return nil
	}
	des := obs.Clone()
	dg := des.Groups[group]
	dg.Restarts++
	dg.Starting++
	dg.Target = len(dg.Replicas) + dg.Starting
	return des
}

// ReconcileResize expresses "run exactly n replicas of this group" as a
// desired state: raise Starting when below, mark the newest non-stopping
// replicas Stopping when above. It is the scriptable lifecycle used by
// ResizeGroup.
func ReconcileResize(obs *State, group string, n int) (*State, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative replica target %d for group %q", n, group)
	}
	g := obs.Groups[group]
	if g == nil {
		return nil, fmt.Errorf("unknown group %q", group)
	}
	des := obs.Clone()
	dg := des.Groups[group]
	dg.Target = n
	live := dg.Starting
	for _, r := range dg.Replicas {
		if !r.Stopping {
			live++
		}
	}
	if n > live {
		dg.Starting += n - live
		return des, nil
	}
	ids := make([]string, 0, len(dg.Replicas))
	for id := range dg.Replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i := len(ids) - 1; i >= 0 && live > n; i-- {
		r := dg.Replicas[ids[i]]
		if !r.Stopping {
			r.Stopping = true
			live--
		}
	}
	return des, nil
}

// ReconcilePlacement is the re-placement reconciler: given the observed
// grouping and the merged call graph, it returns the component moves worth
// applying — or nothing when the graph is too thin to trust (fewer than
// minCalls observed calls) or the best plan's locality gain is below
// minGain. Components of the "main" group — the driver process — are never
// moved automatically in either direction.
func ReconcilePlacement(obs *State, g *callgraph.Graph, cfg placement.Config, minGain float64, minCalls uint64) []placement.Move {
	var total uint64
	for _, e := range g.Edges {
		if e.Caller != "" {
			total += e.Calls
		}
	}
	if total < minCalls {
		return nil // not enough signal yet
	}
	current := make(map[string][]string, len(obs.Groups))
	for name, grp := range obs.Groups {
		current[name] = append([]string(nil), grp.Components...)
	}
	ev := placement.Evaluate(g, cfg)
	if ev.Score-placement.Score(g, current) < minGain {
		return nil // running grouping is good enough
	}
	var out []placement.Move
	for _, mv := range placement.Diff(current, ev.Plan) {
		if mv.From == "main" || mv.To == "main" {
			continue
		}
		out = append(out, mv)
	}
	return out
}

// CheckInvariants verifies the structural invariants every published state
// must satisfy. The sim harness asserts it after every op; a violation is
// a control-plane bug, not a test flake.
//
//   - hosting is a bijection: CompGroup and the groups' Components lists
//     agree exactly (no orphaned or doubly-hosted component);
//   - Routed flags only cover hosted components;
//   - no stamped push exceeds RouteEpoch (the epoch counter is the upper
//     bound of everything ever issued; CheckApplied checks the replicas'
//     applied epochs against it);
//   - replica bookkeeping is sane (IDs match keys, Starting >= 0).
func CheckInvariants(s *State) error {
	seen := map[string]string{}
	for name, g := range s.Groups {
		if g.Starting < 0 {
			return fmt.Errorf("group %q has negative starting count %d", name, g.Starting)
		}
		for _, c := range g.Components {
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("component %q hosted by both %q and %q", c, prev, name)
			}
			seen[c] = name
			if s.CompGroup[c] != name {
				return fmt.Errorf("component %q listed in group %q but CompGroup says %q", c, name, s.CompGroup[c])
			}
		}
		for c := range g.Routed {
			if seen[c] != name {
				return fmt.Errorf("group %q has routed flag for unhosted component %q", name, c)
			}
		}
		for id, r := range g.Replicas {
			if r.ID != id {
				return fmt.Errorf("group %q replica keyed %q has ID %q", name, id, r.ID)
			}
		}
	}
	for c, gname := range s.CompGroup {
		if s.Groups[gname] == nil {
			return fmt.Errorf("component %q mapped to missing group %q", c, gname)
		}
		if seen[c] != gname {
			return fmt.Errorf("component %q in CompGroup (%q) but not in that group's list", c, gname)
		}
	}
	for c, p := range s.LastPush {
		if p.Version > s.RouteEpoch {
			return fmt.Errorf("component %q push epoch %d beyond RouteEpoch %d", c, p.Version, s.RouteEpoch)
		}
	}
	return nil
}

// CheckApplied verifies that no replica has applied a routing epoch beyond
// the RouteEpoch of the State that snapshot returns. It reads st before it
// takes the snapshot: an epoch is stamped in a published State before any
// replica can acknowledge it, so a push stamped and acknowledged meanwhile
// cannot read as a violation.
func CheckApplied(st *Status, snapshot func() *State) error {
	id, c, v := st.MaxApplied()
	if s := snapshot(); v > s.RouteEpoch {
		return fmt.Errorf("replica %q applied epoch %d for %q beyond RouteEpoch %d", id, v, c, s.RouteEpoch)
	}
	return nil
}
