package manager

// This file is the actuator: the only code in the manager that starts
// replicas, stops them, or pushes routing to proclets. Reconcilers
// (internal/cplane) decide WHAT the fabric should look like; the actuator
// diffs desired against observed and performs the envelope operations, in
// a fixed order — routing pushes first, then starts, then stops — so no
// proclet keeps routing to a replica that is draining. `make lint`
// enforces that routing sends appear nowhere else in this package.

import (
	"context"
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
		m.broadcastGroupRouting(group)
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
		if opts.sync {
			var wg sync.WaitGroup
			for _, e := range envs {
				wg.Add(1)
				go func(e *envelope.Envelope) {
					defer wg.Done()
					e.Stop(5 * time.Second)
				}(e)
			}
			wg.Wait()
		} else {
			for _, e := range envs {
				go e.Stop(5 * time.Second)
			}
		}
	}
	return firstErr
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
	m.envelopes[env] = true
	m.envs[id] = env
	m.mu.Unlock()
	m.cfg.Logger.Info("replica started", "group", group, "replica", id)
	return nil
}

// stampGroupRouting draws one fresh epoch and builds the RoutingInfo
// messages for a group's components from the current ready replica set,
// stamping LastPush for each. This (with its caller below) is the single
// site that issues routing epochs.
func (m *Manager) stampGroupRouting(group string) []pipe.RoutingInfo {
	var out []pipe.RoutingInfo
	m.store.Update(func(s *cplane.State) {
		g := s.Groups[group]
		if g == nil {
			return
		}
		addrs := s.ReadyAddrs(group)
		v := s.NextEpoch()
		out = make([]pipe.RoutingInfo, 0, len(g.Components))
		for _, c := range g.Components {
			ri := pipe.RoutingInfo{Component: c, Replicas: addrs, Version: v}
			if g.Routed[c] && len(addrs) > 0 {
				a := routing.EqualSlices(v, addrs, slicesPerReplica)
				ri.Assignment = &a
			}
			s.LastPush[c] = cplane.Push{Version: v, Addrs: addrs}
			out = append(out, ri)
		}
	})
	return out
}

// broadcastGroupRouting pushes fresh routing info for a group's components
// to every envelope. Pushes are acked: each proclet's ack records the
// applied epoch in the observed state, closing the desired-vs-observed
// loop the /control page and the sim invariants inspect.
func (m *Manager) broadcastGroupRouting(group string) {
	infos := m.stampGroupRouting(group)
	if len(infos) == 0 {
		return
	}
	m.mu.Lock()
	envs := make([]*envelope.Envelope, 0, len(m.envelopes))
	for e := range m.envelopes {
		envs = append(envs, e)
	}
	m.mu.Unlock()
	m.recordAction("push", fmt.Sprintf("group %s: %d components to %d proclets, %d replicas",
		group, len(infos), len(envs), len(infos[0].Replicas)), infos[0].Version)
	for _, e := range envs {
		for _, ri := range infos {
			ri, e := ri, e
			_ = e.PushRoutingInfo(ri, func() {
				m.status.NoteApplied(e.ID, ri.Component, ri.Version)
			})
		}
	}
}

// callRoutingInfo synchronously pushes one RoutingInfo to every envelope
// in envs and waits for all acks (re-placement's flip step). Successful
// acks record applied epochs like broadcasts do.
func (m *Manager) callRoutingInfo(ctx context.Context, envs []*envelope.Envelope, ri pipe.RoutingInfo) error {
	return m.forEachEnvelope(ctx, envs, func(sctx context.Context, e *envelope.Envelope) error {
		if err := e.CallRoutingInfo(sctx, ri); err != nil {
			return err
		}
		m.status.NoteApplied(e.ID, ri.Component, ri.Version)
		return nil
	})
}

// forEachEnvelope runs fn against every envelope in parallel with a
// per-step timeout and returns the first hard failure. An envelope whose
// proclet exited during the step does not fail the step: it is gone, and
// gone proclets hold no stale state.
func (m *Manager) forEachEnvelope(ctx context.Context, envs []*envelope.Envelope, fn func(context.Context, *envelope.Envelope) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(envs))
	for i, e := range envs {
		wg.Add(1)
		go func(i int, e *envelope.Envelope) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, moveStepTimeout)
			defer cancel()
			err := fn(sctx, e)
			if err == nil {
				return
			}
			select {
			case <-e.Done():
				return // replica exited mid-step; nothing to fence
			default:
			}
			errs[i] = err
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
