// Package cplane holds the manager's control-plane state as an immutable,
// versioned value: which colocation groups exist, which replicas each one
// runs, which group hosts each component, the newest routing info stamped
// per component, and the global routing epoch. The state lives in a
// copy-on-write Store (store.go); decision logic is expressed as pure
// reconcilers (reconcile.go) that read an observed snapshot and return a
// desired state, and Diff (diff.go) turns observed-vs-desired into the
// actions a single actuator executes. See DESIGN.md §14.
package cplane

import (
	"fmt"
	"sort"
)

// Replica is the control plane's view of one running (or starting) replica
// of a colocation group.
type Replica struct {
	ID   string
	Addr string // data-plane address, set at registration

	Ready    bool // has registered and serves data-plane traffic
	Healthy  bool // reported healthy and not stale
	Stopping bool // a scale-down or resize picked it for graceful stop

	// The replica's load rate, last report time and applied routing epochs
	// are observed status, kept in a Status table (status.go), not here.
}

// Group is one colocation group: a named set of components sharing an OS
// process, and the replicas running them.
type Group struct {
	Name       string
	Components []string        // sorted full component names hosted here
	Routed     map[string]bool // which hosted components use affinity routing
	Replicas   map[string]*Replica

	NextID   int // suffix for the next replica name "<group>/<n>"
	Restarts int // crash restarts consumed against Config.MaxRestarts
	Starting int // replicas being started right now
	Target   int // last reconciler-desired replica count (informational)
}

// Push snapshots the newest routing info stamped for one component: the
// epoch and the replica addresses it carried. Harnesses use it as the
// settle barrier; the /control page shows it against each replica's
// Applied epoch.
type Push struct {
	Version uint64
	Addrs   []string
}

// State is one immutable version of the control plane. Values handed out
// by Store.Snapshot must not be mutated; all mutation happens on the
// working copy inside Store.Update.
type State struct {
	// Version counts store updates, which are desired changes: observed
	// status (load reports, routing acks) lives in Status and never moves
	// it. It is assigned by the store and resets when a manager is rebuilt;
	// RouteEpoch does not.
	Version uint64

	// RouteEpoch is the global routing epoch: every routing broadcast and
	// every re-placement step draws a fresh, strictly increasing value.
	// Proclets and their data-plane conns discard anything older than what they have
	// applied, so delayed or reordered pushes can never resurrect a
	// superseded placement.
	RouteEpoch uint64

	Groups    map[string]*Group
	CompGroup map[string]string // component -> hosting group
	LastPush  map[string]Push   // component -> newest stamped routing
}

// NewState returns an empty control-plane state.
func NewState() *State {
	return &State{
		Groups:    map[string]*Group{},
		CompGroup: map[string]string{},
		LastPush:  map[string]Push{},
	}
}

// Clone deep-copies the state. The control plane is small (tens of groups,
// hundreds of replicas at most), so copy-on-write clones whole versions
// rather than sharing structure.
func (s *State) Clone() *State {
	c := &State{
		Version:    s.Version,
		RouteEpoch: s.RouteEpoch,
		Groups:     make(map[string]*Group, len(s.Groups)),
		CompGroup:  make(map[string]string, len(s.CompGroup)),
		LastPush:   make(map[string]Push, len(s.LastPush)),
	}
	for name, g := range s.Groups {
		c.Groups[name] = g.clone()
	}
	for comp, g := range s.CompGroup {
		c.CompGroup[comp] = g
	}
	for comp, p := range s.LastPush {
		c.LastPush[comp] = p // Addrs slices are treated as immutable
	}
	return c
}

func (g *Group) clone() *Group {
	c := &Group{
		Name:       g.Name,
		Components: append([]string(nil), g.Components...),
		Routed:     make(map[string]bool, len(g.Routed)),
		Replicas:   make(map[string]*Replica, len(g.Replicas)),
		NextID:     g.NextID,
		Restarts:   g.Restarts,
		Starting:   g.Starting,
		Target:     g.Target,
	}
	for comp, r := range g.Routed {
		c.Routed[comp] = r
	}
	for id, r := range g.Replicas {
		rc := *r
		c.Replicas[id] = &rc
	}
	return c
}

// NextEpoch draws a fresh global routing epoch. Call only on the working
// copy inside Store.Update.
func (s *State) NextEpoch() uint64 {
	s.RouteEpoch++
	return s.RouteEpoch
}

// AddGroup creates a colocation group hosting the given components, each
// flagged routed or not per routedSet. The caller is responsible for
// validating that the components exist in the inventory.
func (s *State) AddGroup(name string, components []string, routedSet map[string]bool) (*Group, error) {
	if _, dup := s.Groups[name]; dup {
		return nil, fmt.Errorf("duplicate group %q", name)
	}
	g := &Group{
		Name:       name,
		Components: append([]string(nil), components...),
		Routed:     map[string]bool{},
		Replicas:   map[string]*Replica{},
	}
	for _, c := range components {
		if prev, taken := s.CompGroup[c]; taken {
			return nil, fmt.Errorf("component %q in groups %q and %q", c, prev, name)
		}
		s.CompGroup[c] = name
		g.Routed[c] = routedSet[c]
	}
	sort.Strings(g.Components)
	s.Groups[name] = g
	return g, nil
}

// Relocate moves a component's hosting from its current group to dest,
// updating the component lists and routed sets of both. It is the
// ownership-flip half of a move; the caller stamps and pushes routing.
func (s *State) Relocate(component, dest string) error {
	src, ok := s.CompGroup[component]
	if !ok {
		return fmt.Errorf("unknown component %q", component)
	}
	if src == dest {
		return nil
	}
	srcG, dstG := s.Groups[src], s.Groups[dest]
	if dstG == nil {
		return fmt.Errorf("unknown group %q", dest)
	}
	routed := srcG.Routed[component]
	srcG.Components = removeString(srcG.Components, component)
	delete(srcG.Routed, component)
	dstG.Components = append(dstG.Components, component)
	sort.Strings(dstG.Components)
	dstG.Routed[component] = routed
	s.CompGroup[component] = dest
	return nil
}

// Replica returns the record of replica id in group, or nil.
func (s *State) Replica(group, id string) *Replica {
	if g := s.Groups[group]; g != nil {
		return g.Replicas[id]
	}
	return nil
}

// ReadyAddrs returns the sorted data-plane addresses of a group's routable
// replicas: ready, healthy, and not stopping.
func (s *State) ReadyAddrs(group string) []string {
	g := s.Groups[group]
	if g == nil {
		return nil
	}
	var addrs []string
	for _, r := range g.Replicas {
		if r.Ready && r.Healthy && !r.Stopping {
			addrs = append(addrs, r.Addr)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// ReadyReplicaIDs returns the sorted IDs of a group's routable replicas.
func (s *State) ReadyReplicaIDs(group string) []string {
	g := s.Groups[group]
	if g == nil {
		return nil
	}
	var ids []string
	for id, r := range g.Replicas {
		if r.Ready && r.Healthy && !r.Stopping {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// ReplaceWith overwrites s's contents with the desired state des, keeping
// s's store-assigned Version. It is how an Update adopts a reconciler's
// desired state as the new truth after diffing.
func (s *State) ReplaceWith(des *State) {
	v := s.Version
	*s = *des
	s.Version = v
}

// SortedGroupNames returns the group names in sorted order, for
// deterministic iteration.
func (s *State) SortedGroupNames() []string {
	names := make([]string, 0, len(s.Groups))
	for name := range s.Groups {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func removeString(s []string, v string) []string {
	out := make([]string, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
