package manager

// This file is the actuator: the only code in the manager that sends
// requests to proclets, starts replicas, or stops them. Reconcilers
// (internal/cplane) decide WHAT the fabric should look like; the actuator
// diffs desired against observed and performs the envelope operations, in
// a fixed order — routing pushes first, then starts, then stops — so no
// proclet keeps routing to a replica that is draining. It also executes
// each step of a live re-placement move (replace.go) and the
// re-registration that ends a manager's recovery, and it is the single
// site that draws routing epochs and stamps LastPush. `make lint` enforces
// that envelope requests, envelope stops and Starter calls appear nowhere
// else in this package (nor in internal/deploy).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cplane"
	"repro/internal/envelope"
	"repro/internal/pipe"
	"repro/internal/routing"
)

// actuateOpts tunes one actuation pass. sync makes starts and stops block
// until done (StartGroup/ResizeGroup semantics); otherwise they run in the
// background as the control loops do.
type actuateOpts struct {
	sync bool
}

// An ActionRecord is one actuator action, kept in a bounded ring for the
// /control dashboard page.
type ActionRecord struct {
	When   time.Time
	Kind   string // "push", "start", "stop", "recover"
	Detail string
	Epoch  uint64 // routing epoch stamped, if any
}

// maxActionLog bounds the action ring.
const maxActionLog = 128

// stepTimeout bounds each acked step: a move's host, flip and drain
// steps, and recovery's re-registration.
const stepTimeout = 10 * time.Second

func (m *Manager) recordAction(kind, detail string, epoch uint64) {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	m.actions = append(m.actions, ActionRecord{When: m.clk.Now(), Kind: kind, Detail: detail, Epoch: epoch})
	if len(m.actions) > maxActionLog {
		m.actions = m.actions[len(m.actions)-maxActionLog:]
	}
}

// Actions returns the actuator's recent actions, oldest first.
func (m *Manager) Actions() []ActionRecord {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	return append([]ActionRecord(nil), m.actions...)
}

// actuate executes an action plan: broadcast routing for dirty groups,
// launch requested replicas, gracefully stop marked ones. The plan's
// Starting counts are already committed to the store (reconcilers raise
// Starting in the desired state), so actuate only performs the launches.
func (m *Manager) actuate(ctx context.Context, acts cplane.Actions, opts actuateOpts) error {
	for _, group := range acts.Push {
		_ = m.pushRouting(ctx, "group "+group, m.stampGroupRouting(group), false)
	}

	var firstErr error
	for _, a := range acts.Start {
		for i := 0; i < a.N; i++ {
			if opts.sync && a.Backoff == 0 {
				if err := m.launchReplica(ctx, a.Group); err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			}
			go func(a cplane.StartAction) {
				if a.Backoff > 0 {
					select {
					case <-m.clk.After(a.Backoff):
					case <-m.ctx.Done():
						m.store.Update(func(s *cplane.State) {
							if g := s.Groups[a.Group]; g != nil && g.Starting > 0 {
								g.Starting--
							}
						})
						return
					}
				}
				if err := m.launchReplica(m.ctx, a.Group); err != nil {
					m.cfg.Logger.Error("starting replica", err, "group", a.Group)
				}
			}(a)
		}
	}

	if len(acts.Stop) > 0 {
		m.mu.Lock()
		envs := make([]*envelope.Envelope, 0, len(acts.Stop))
		for _, a := range acts.Stop {
			if e := m.envs[a.Replica]; e != nil {
				envs = append(envs, e)
			}
		}
		m.mu.Unlock()
		for _, a := range acts.Stop {
			m.recordAction("stop", fmt.Sprintf("stopping %s", a.Replica), 0)
		}
		stopEnvelopes(envs, 5*time.Second, opts.sync)
	}
	return firstErr
}

// stopEnvelopes stops proclets gracefully and in parallel, each killed
// after grace; with wait it returns once all of them are gone.
func stopEnvelopes(envs []*envelope.Envelope, grace time.Duration, wait bool) {
	var wg sync.WaitGroup
	for _, e := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop(grace)
		}()
	}
	if wait {
		wg.Wait()
	}
}

// launchReplica starts one replica of a group through the deployer's
// Starter. The group's Starting count was already raised by the committed
// desired state; launchReplica decrements it when the launch resolves. The
// proclet usually registers (RegisterReplica) before the starter returns,
// so the replica record may already exist.
func (m *Manager) launchReplica(ctx context.Context, group string) error {
	var id string
	m.store.Update(func(s *cplane.State) {
		g := s.Groups[group]
		if g == nil {
			return
		}
		id = fmt.Sprintf("%s/%d", group, g.NextID)
		g.NextID++
	})
	if id == "" {
		return fmt.Errorf("manager: unknown group %q", group)
	}
	if m.isStopped() {
		m.store.Update(func(s *cplane.State) {
			if g := s.Groups[group]; g != nil && g.Starting > 0 {
				g.Starting--
			}
		})
		return fmt.Errorf("manager: stopped")
	}
	m.recordAction("start", fmt.Sprintf("launching %s", id), 0)

	env, err := m.starter(ctx, group, id, m)

	m.store.Update(func(s *cplane.State) {
		g := s.Groups[group]
		if g == nil {
			return
		}
		if g.Starting > 0 {
			g.Starting--
		}
		if err != nil {
			return
		}
		if g.Replicas[id] == nil {
			g.Replicas[id] = &cplane.Replica{ID: id, Healthy: true}
			m.status.Touch(id, m.clk.Now())
		}
	})
	if err != nil {
		m.cfg.Logger.Error("starting replica", err, "group", group, "replica", id)
		return err
	}
	m.mu.Lock()
	m.envs[id] = env
	m.mu.Unlock()
	m.cfg.Logger.Info("replica started", "group", group, "replica", id)
	return nil
}

// stampRouting draws one fresh epoch and builds the RoutingInfo messages
// for comps, routed to group's ready replicas, stamping LastPush for each.
// It is the one function that builds routing pushes: broadcasts and a
// move's flip both stamp through it.
func stampRouting(s *cplane.State, group string, comps []string) []pipe.RoutingInfo {
	g := s.Groups[group]
	addrs := s.ReadyAddrs(group)
	v := s.NextEpoch()
	out := make([]pipe.RoutingInfo, 0, len(comps))
	for _, c := range comps {
		ri := pipe.RoutingInfo{Component: c, Replicas: addrs, Version: v}
		if g.Routed[c] && len(addrs) > 0 {
			a := routing.EqualSlices(v, addrs, slicesPerReplica)
			ri.Assignment = &a
		}
		s.LastPush[c] = cplane.Push{Version: v, Addrs: addrs}
		out = append(out, ri)
	}
	return out
}

// stampGroupRouting stamps fresh routing for all of a group's components.
func (m *Manager) stampGroupRouting(group string) []pipe.RoutingInfo {
	var out []pipe.RoutingInfo
	m.store.Update(func(s *cplane.State) {
		if g := s.Groups[group]; g != nil {
			out = stampRouting(s, group, g.Components)
		}
	})
	return out
}

// pushRouting sends stamped routing to every envelope. Pushes are acked:
// each proclet's ack records the applied epoch in the observed status,
// closing the desired-vs-observed loop the /control page and the sim
// invariants inspect. With wait, pushRouting returns once every proclet
// has applied the push (a move's flip).
func (m *Manager) pushRouting(ctx context.Context, what string, infos []pipe.RoutingInfo, wait bool) error {
	if len(infos) == 0 {
		return nil
	}
	envs := m.Envelopes()
	m.recordAction("push", fmt.Sprintf("%s: %d components to %d proclets, %d replicas",
		what, len(infos), len(envs), len(infos[0].Replicas)), infos[0].Version)
	for _, ri := range infos {
		if err := requestAll(ctx, envs, wait, func(e *envelope.Envelope, done func(error)) {
			e.PushRoutingInfo(ri, func(err error) {
				if err == nil {
					m.status.NoteApplied(e.ID, ri.Component, ri.Version)
				}
				done(err)
			})
		}); err != nil {
			return err
		}
	}
	return nil
}

// requestAll sends one acked request to each of envs through send and,
// with wait, blocks until every request has resolved or stepTimeout has
// passed, returning the first failure. A request whose proclet is gone
// (pipe.ErrClosed) does not fail the step: gone proclets hold no stale
// state.
func requestAll(ctx context.Context, envs []*envelope.Envelope, wait bool, send func(*envelope.Envelope, func(error))) error {
	results := make(chan error, len(envs))
	for _, e := range envs {
		send(e, func(err error) { results <- err })
	}
	if !wait {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, stepTimeout)
	defer cancel()
	for range envs {
		select {
		case err := <-results:
			if err != nil && !errors.Is(err, pipe.ErrClosed) {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// readyEnvelopes returns the envelopes of a group's routable replicas per
// the state snapshot s.
func (m *Manager) readyEnvelopes(s *cplane.State, group string) []*envelope.Envelope {
	ids := s.ReadyReplicaIDs(group)
	m.mu.Lock()
	defer m.mu.Unlock()
	var envs []*envelope.Envelope
	for _, id := range ids {
		if e := m.envs[id]; e != nil {
			envs = append(envs, e)
		}
	}
	return envs
}

// hostOn is a move's host step (DESIGN.md §10, steps 2 and 4): under a
// fresh epoch, every ready replica of group is asked to host the group's
// components plus component, and hostOn waits until their handlers serve.
// Replicas already hosting them ack at once.
func (m *Manager) hostOn(ctx context.Context, group, component string) error {
	var (
		v     uint64
		comps []string
		envs  []*envelope.Envelope
	)
	m.store.Update(func(s *cplane.State) {
		v = s.NextEpoch()
		comps = append([]string(nil), s.Groups[group].Components...)
		if s.CompGroup[component] != group {
			comps = append(comps, component)
		}
		envs = m.readyEnvelopes(s, group)
	})
	return requestAll(ctx, envs, true, func(e *envelope.Envelope, done func(error)) {
		e.HostComponents(comps, v, done)
	})
}

// flip is a move's flip step (DESIGN.md §10, step 3): in one store update
// it moves component's ownership to dest and stamps its routing, then it
// pushes that routing to every proclet and waits for all acks. It returns
// the flip's epoch and the replicas that hosted component before it, which
// the drain step stops.
func (m *Manager) flip(ctx context.Context, component, dest string) (uint64, []*envelope.Envelope, error) {
	var (
		infos []pipe.RoutingInfo
		src   []*envelope.Envelope
	)
	m.store.Update(func(s *cplane.State) {
		src = m.readyEnvelopes(s, s.CompGroup[component])
		_ = s.Relocate(component, dest)
		infos = stampRouting(s, dest, []string{component})
	})
	err := m.pushRouting(ctx, fmt.Sprintf("move flip %s -> %s", component, dest), infos, true)
	return infos[0].Version, src, err
}

// drain is a move's drain step (DESIGN.md §10, step 5): every replica in
// envs stops hosting component, acking once its in-flight calls have
// drained and its handlers are released.
func (m *Manager) drain(ctx context.Context, envs []*envelope.Envelope, component string, version uint64) error {
	return requestAll(ctx, envs, true, func(e *envelope.Envelope, done func(error)) {
		e.StopComponent(component, version, done)
	})
}

// Recover ends the recovery Adopt began. It asks every adopted proclet to
// re-register and waits for their acks; each ack arrives after the
// proclet's registration has been handled, because the pipe keeps order.
// Then, or once ctx ends (proclets that missed it re-register later
// through the normal path), it leaves recovery and rebroadcasts every
// group's routing at fresh epochs above the recovered floor, rebuilding
// every proclet's routing view under this manager.
func (m *Manager) Recover(ctx context.Context) error {
	err := requestAll(ctx, m.Envelopes(), true, func(e *envelope.Envelope, done func(error)) {
		e.Reregister(done)
	})
	m.mu.Lock()
	m.recovering = false
	m.mu.Unlock()

	s := m.store.Snapshot()
	var groups []string
	for _, name := range s.SortedGroupNames() {
		if len(s.Groups[name].Components) > 0 {
			groups = append(groups, name)
		}
	}
	m.recordAction("recover", fmt.Sprintf("recovery complete, rebroadcasting %d groups", len(groups)), s.RouteEpoch)
	_ = m.actuate(m.ctx, cplane.Actions{Push: groups}, actuateOpts{})
	return err
}

// --- control-plane introspection (the /control page) ---

// GroupControl summarizes one group's desired-vs-observed position.
type GroupControl struct {
	Name       string
	Components []string
	Target     int // last reconciler-desired replica count
	Starting   int
	Live       int // registered replicas
	Ready      int // routable replicas (ready, healthy, not stopping)
	Restarts   int
	// Lag counts (replica, component) pairs whose applied routing epoch
	// trails the newest stamped push for that component.
	Lag int
}

// ControlStatus is the control-plane snapshot the dashboard renders.
type ControlStatus struct {
	StateVersion uint64
	RouteEpoch   uint64
	Groups       []GroupControl
	Actions      []ActionRecord // oldest first
}

// ControlStatus summarizes the versioned control-plane state and the
// actuator's recent actions.
func (m *Manager) ControlStatus() ControlStatus {
	s := m.store.Snapshot()
	st := ControlStatus{
		StateVersion: s.Version,
		RouteEpoch:   s.RouteEpoch,
		Actions:      m.Actions(),
	}
	for _, name := range s.SortedGroupNames() {
		g := s.Groups[name]
		gc := GroupControl{
			Name:       name,
			Components: append([]string(nil), g.Components...),
			Target:     g.Target,
			Starting:   g.Starting,
			Live:       len(g.Replicas),
			Restarts:   g.Restarts,
		}
		ids := make([]string, 0, len(g.Replicas))
		for id := range g.Replicas {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			r := g.Replicas[id]
			if r.Ready && r.Healthy && !r.Stopping {
				gc.Ready++
			}
			for c, p := range s.LastPush {
				if p.Version > 0 && m.status.Applied(id, c) < p.Version {
					gc.Lag++
				}
			}
		}
		st.Groups = append(st.Groups, gc)
	}
	return st
}
