// Package placement computes colocation plans from observed call graphs
// (paper §5.1): "the runtime can use [the call graph] to identify ... the
// chatty components ... and make smarter scaling, placement, and
// co-location decisions."
//
// The planner greedily merges the pair of groups with the heaviest
// inter-group traffic until constraints stop it — the classic
// agglomerative heuristic for graph partitioning, which is both simple and
// effective for the scale of a single application (tens of components).
package placement

import (
	"fmt"
	"sort"

	"repro/internal/callgraph"
)

// Config bounds a placement plan.
type Config struct {
	// MaxGroupSize caps components per group (default 4). A cap models
	// the practical limits on process size: fault-isolation blast radius
	// and per-process resource ceilings.
	MaxGroupSize int
}

// Plan computes a colocation plan for the components in g. The result maps
// generated group names ("g0", "g1", ...) to member component lists; the
// names are stable across runs for the same input.
func Plan(g *callgraph.Graph, cfg Config) map[string][]string {
	if cfg.MaxGroupSize <= 0 {
		cfg.MaxGroupSize = 4
	}

	components := g.Components()
	// Union-find over components.
	parent := map[string]string{}
	size := map[string]int{}
	for _, c := range components {
		parent[c] = c
		size[c] = 1
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Aggregate pairwise traffic.
	type pairKey [2]string
	traffic := map[pairKey]uint64{}
	for _, e := range g.Edges {
		if e.Caller == "" || e.Caller == e.Callee {
			continue
		}
		a, b := e.Caller, e.Callee
		if a > b {
			a, b = b, a
		}
		traffic[pairKey{a, b}] += e.Calls
	}

	for {
		// Find the heaviest mergeable pair of current groups.
		agg := map[pairKey]uint64{}
		for k, calls := range traffic {
			ra, rb := find(k[0]), find(k[1])
			if ra == rb {
				continue
			}
			if ra > rb {
				ra, rb = rb, ra
			}
			agg[pairKey{ra, rb}] += calls
		}
		var best pairKey
		var bestCalls uint64
		keys := make([]pairKey, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		for _, k := range keys {
			calls := agg[k]
			if size[k[0]]+size[k[1]] > cfg.MaxGroupSize {
				continue
			}
			if calls > bestCalls {
				best, bestCalls = k, calls
			}
		}
		if bestCalls == 0 {
			// Every remaining pair is too big to merge or never calls.
			break
		}
		// Merge.
		parent[best[1]] = best[0]
		size[best[0]] += size[best[1]]
	}

	// Materialize groups with stable names.
	members := map[string][]string{}
	for _, c := range components {
		r := find(c)
		members[r] = append(members[r], c)
	}
	roots := make([]string, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := map[string][]string{}
	for i, r := range roots {
		sort.Strings(members[r])
		out[fmt.Sprintf("g%d", i)] = members[r]
	}
	return out
}

// An Evaluation pairs a colocation plan with its locality score.
type Evaluation struct {
	// Plan maps group names to member component lists (see Plan).
	Plan map[string][]string
	// Score is the fraction of observed calls the plan makes local.
	Score float64
}

// Evaluate plans a colocation for g and scores it against the same graph —
// the plan-and-score step shared by the placement benchmark, the offline
// evaluation harness, and the manager's live re-placement loop.
func Evaluate(g *callgraph.Graph, cfg Config) Evaluation {
	plan := Plan(g, cfg)
	return Evaluation{Plan: plan, Score: Score(g, plan)}
}

// A Move relocates one component from one group to another.
type Move struct {
	Component string
	From, To  string
}

// Diff computes the component moves that transform the current grouping
// into the target plan. Target groups are matched onto current groups by
// maximum member overlap, so a plan that merely renames groups — Plan's
// generated names never match a deployment's — produces no moves. Target
// groups left unmatched get fresh names that do not collide with any
// current group. Components absent from the target plan stay where they
// are. Moves are returned sorted by component name.
func Diff(current, target map[string][]string) []Move {
	curOf := map[string]string{}
	for name, comps := range current {
		for _, c := range comps {
			curOf[c] = name
		}
	}

	// Score every (target group, current group) pair by member overlap.
	type cand struct {
		overlap  int
		tgt, cur string
	}
	var cands []cand
	tgtNames := make([]string, 0, len(target))
	for t := range target {
		tgtNames = append(tgtNames, t)
	}
	sort.Strings(tgtNames)
	for _, t := range tgtNames {
		counts := map[string]int{}
		for _, c := range target[t] {
			if g, ok := curOf[c]; ok {
				counts[g]++
			}
		}
		for g, n := range counts {
			cands = append(cands, cand{overlap: n, tgt: t, cur: g})
		}
	}
	// Greedy maximum matching: heaviest overlap first, deterministic
	// tie-break by names.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.overlap != b.overlap {
			return a.overlap > b.overlap
		}
		if a.tgt != b.tgt {
			return a.tgt < b.tgt
		}
		return a.cur < b.cur
	})
	assigned := map[string]string{} // target group -> deployment group name
	taken := map[string]bool{}
	for _, c := range cands {
		if _, done := assigned[c.tgt]; done || taken[c.cur] {
			continue
		}
		assigned[c.tgt] = c.cur
		taken[c.cur] = true
	}
	// Fresh non-colliding names for unmatched target groups.
	inUse := map[string]bool{}
	for name := range current {
		inUse[name] = true
	}
	for _, name := range assigned {
		inUse[name] = true
	}
	for _, t := range tgtNames {
		if _, done := assigned[t]; done {
			continue
		}
		name := t
		for i := 2; inUse[name]; i++ {
			name = fmt.Sprintf("%s-%d", t, i)
		}
		assigned[t] = name
		inUse[name] = true
	}

	var moves []Move
	for _, t := range tgtNames {
		dest := assigned[t]
		for _, c := range target[t] {
			from, ok := curOf[c]
			if !ok || from == dest {
				continue
			}
			moves = append(moves, Move{Component: c, From: from, To: dest})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Component < moves[j].Component })
	return moves
}

// Score evaluates a plan against a call graph: the fraction of calls that
// become local (caller and callee share a group). Higher is better; 1.0
// means fully colocated.
func Score(g *callgraph.Graph, plan map[string][]string) float64 {
	groupOf := map[string]string{}
	for name, comps := range plan {
		for _, c := range comps {
			groupOf[c] = name
		}
	}
	var local, total uint64
	for _, e := range g.Edges {
		if e.Caller == "" {
			continue
		}
		total += e.Calls
		ga, oka := groupOf[e.Caller]
		gb, okb := groupOf[e.Callee]
		if oka && okb && ga == gb {
			local += e.Calls
		}
	}
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// Validate checks that a plan covers each component exactly once and
// respects the size cap.
func Validate(plan map[string][]string, cfg Config) error {
	if cfg.MaxGroupSize <= 0 {
		cfg.MaxGroupSize = 4
	}
	seen := map[string]string{}
	for name, comps := range plan {
		if len(comps) == 0 {
			return fmt.Errorf("placement: empty group %s", name)
		}
		if len(comps) > cfg.MaxGroupSize {
			return fmt.Errorf("placement: group %s has %d components, cap %d", name, len(comps), cfg.MaxGroupSize)
		}
		for _, c := range comps {
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("placement: component %s in groups %s and %s", c, prev, name)
			}
			seen[c] = name
		}
	}
	return nil
}
