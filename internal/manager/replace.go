package manager

// This file implements live re-placement: the manager periodically
// re-plans colocation from the observed call graph and applies the plan to
// the running deployment by moving components between groups, without
// dropping or duplicating calls. See DESIGN.md §10 for the protocol. The
// planning half is the pure cplane.ReconcilePlacement reconciler; this
// file is the move actuation.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cplane"
	"repro/internal/envelope"
	"repro/internal/pipe"
	"repro/internal/placement"
	"repro/internal/routing"
)

// A MoveRecord describes one applied re-placement move.
type MoveRecord struct {
	Component string
	From, To  string
	// Version is the routing epoch that flipped ownership to To.
	Version uint64
	When    time.Time
}

// PlacementStatus is a snapshot of the live re-placement state: what runs
// where, what the planner currently recommends, and what has been moved.
type PlacementStatus struct {
	// Current maps running group names to their components, and
	// CurrentScore is the fraction of observed calls it makes local.
	Current      map[string][]string
	CurrentScore float64
	// Recommended is the planner's latest plan for the same call graph.
	Recommended      map[string][]string
	RecommendedScore float64
	// TotalCalls is the call volume the scores are computed over.
	TotalCalls uint64
	// Moves lists applied moves, oldest first.
	Moves []MoveRecord
}

// grouping snapshots the current group -> components map.
func (m *Manager) grouping() map[string][]string {
	s := m.store.Snapshot()
	out := make(map[string][]string, len(s.Groups))
	for name, g := range s.Groups {
		out[name] = append([]string(nil), g.Components...)
	}
	return out
}

// PlacementStatus computes the current placement snapshot.
func (m *Manager) PlacementStatus() PlacementStatus {
	g := m.graph.Analyze()
	var total uint64
	for _, e := range g.Edges {
		if e.Caller != "" {
			total += e.Calls
		}
	}
	current := m.grouping()
	ev := placement.Evaluate(g, placement.Config{})
	return PlacementStatus{
		Current:          current,
		CurrentScore:     placement.Score(g, current),
		Recommended:      ev.Plan,
		RecommendedScore: ev.Score,
		TotalCalls:       total,
		Moves:            m.Moves(),
	}
}

// Moves returns the applied re-placement moves, oldest first.
func (m *Manager) Moves() []MoveRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MoveRecord(nil), m.moves...)
}

// placementLoop periodically re-plans and applies beneficial plans.
func (m *Manager) placementLoop() {
	ticker := time.NewTicker(m.cfg.PlacementInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := m.placementOnce(m.ctx); err != nil {
				m.cfg.Logger.Error("re-placement", err)
			}
		case <-m.ctx.Done():
			return
		}
	}
}

// placementOnce runs one iteration of the control loop: the pure
// reconciler plans from the observed state and merged call graph, and the
// moves it returns (if any) are applied one by one.
func (m *Manager) placementOnce(ctx context.Context) error {
	moves := cplane.ReconcilePlacement(m.store.Snapshot(), m.graph.Analyze(),
		placement.Config{}, placementMinGain, m.cfg.PlacementMinCalls)
	for _, mv := range moves {
		if err := m.MoveComponent(ctx, mv.Component, mv.To); err != nil {
			return fmt.Errorf("moving %s from %s to %s: %w", mv.Component, mv.From, mv.To, err)
		}
	}
	return nil
}

// moveStepTimeout bounds each acked step of a move, and moveReadyTimeout
// bounds waiting for the destination group's first ready replica.
const (
	moveStepTimeout  = 10 * time.Second
	moveReadyTimeout = 20 * time.Second
)

// MoveComponent relocates a component to another colocation group at
// runtime, drain-safely:
//
//  1. Ensure the destination group exists and runs a ready replica.
//  2. Host the component on every destination replica and wait until its
//     handlers serve (epoch vHost).
//  3. In one store update, flip ownership in the control-plane state and
//     stamp a fresh epoch vFlip; broadcast the component's new routing to
//     every proclet and wait for all acks. From each proclet's ack on, its
//     new calls target the destination; calls already in flight complete
//     where they started.
//  4. Re-push hosting to destination replicas that registered mid-move.
//  5. Tell the old hosts to stop the component: each demotes its local
//     route, unregisters the handlers, and acks once in-flight calls have
//     drained. Stragglers that still reach the old hosts are refused with
//     a retryable never-executed status.
//
// Every step draws a strictly increasing epoch, so a step replayed late
// (after an ack timeout) is fenced out by whatever superseded it. Moves
// are serialized; concurrent calls queue.
func (m *Manager) MoveComponent(ctx context.Context, component, dest string) error {
	m.moveMu.Lock()
	defer m.moveMu.Unlock()

	if m.isStopped() {
		return fmt.Errorf("manager: stopped")
	}
	var (
		src      string
		known    bool
		addGroup error
	)
	m.store.Update(func(s *cplane.State) {
		src, known = s.CompGroup[component]
		if !known || src == dest {
			return
		}
		if s.Groups[dest] == nil {
			addGroup = m.addGroupTo(s, dest, nil)
		}
	})
	if !known {
		return fmt.Errorf("manager: unknown component %q", component)
	}
	if src == dest {
		return nil
	}
	if addGroup != nil {
		return addGroup
	}

	// Step 1: a ready destination replica.
	min := m.scaler(dest).Config().MinReplicas
	if min < 1 {
		min = 1
	}
	if err := m.StartGroup(ctx, dest, min); err != nil {
		return err
	}
	if err := m.waitGroupReady(ctx, dest); err != nil {
		return err
	}

	// Step 2: host on the destination.
	var (
		vHost  uint64
		comps  []string
		hosted []*envelope.Envelope
	)
	m.store.Update(func(s *cplane.State) {
		vHost = s.NextEpoch()
		comps = append(append([]string(nil), s.Groups[dest].Components...), component)
		hosted = m.readyEnvelopes(s, dest)
	})
	hostOn := func(envs []*envelope.Envelope, v uint64) error {
		return m.forEachEnvelope(ctx, envs, func(sctx context.Context, e *envelope.Envelope) error {
			return e.CallHostComponents(sctx, comps, v)
		})
	}
	if err := hostOn(hosted, vHost); err != nil {
		return fmt.Errorf("manager: hosting %s on %s: %w", component, dest, err)
	}

	// Step 3: flip ownership + routing under one epoch, broadcast, await
	// all acks.
	var (
		vFlip   uint64
		ri      pipe.RoutingInfo
		srcReps []*envelope.Envelope
	)
	m.store.Update(func(s *cplane.State) {
		routed := s.Groups[src].Routed[component]
		_ = s.Relocate(component, dest)
		vFlip = s.NextEpoch()
		addrs := s.ReadyAddrs(dest)
		ri = pipe.RoutingInfo{Component: component, Replicas: addrs, Version: vFlip}
		if routed && len(addrs) > 0 {
			a := routing.EqualSlices(vFlip, addrs, slicesPerReplica)
			ri.Assignment = &a
		}
		s.LastPush[component] = cplane.Push{Version: vFlip, Addrs: addrs}
		srcReps = m.readyEnvelopes(s, src)
	})
	m.mu.Lock()
	all := make([]*envelope.Envelope, 0, len(m.envelopes))
	for e := range m.envelopes {
		all = append(all, e)
	}
	m.mu.Unlock()
	m.recordAction("push", fmt.Sprintf("move flip %s -> %s", component, dest), vFlip)
	if err := m.callRoutingInfo(ctx, all, ri); err != nil {
		// Ownership already flipped; leave the old hosts serving as a
		// safety net for whoever missed the ack and report the failure.
		return fmt.Errorf("manager: broadcasting routing for %s: %w", component, err)
	}

	// Step 4: destination replicas that registered between steps 2 and 3
	// fetched their hosting list before the flip; re-push so they host the
	// component too (idempotent on the others).
	var (
		vHost2 uint64
		late   []*envelope.Envelope
	)
	m.store.Update(func(s *cplane.State) {
		vHost2 = s.NextEpoch()
		late = m.readyEnvelopes(s, dest)
	})
	if len(late) > len(hosted) {
		if err := hostOn(late, vHost2); err != nil {
			return fmt.Errorf("manager: re-hosting %s on %s: %w", component, dest, err)
		}
	}

	// Step 5: drain and release on the old hosts.
	if err := m.forEachEnvelope(ctx, srcReps, func(sctx context.Context, e *envelope.Envelope) error {
		return e.CallStopComponent(sctx, component, vFlip)
	}); err != nil {
		return fmt.Errorf("manager: draining %s on %s: %w", component, src, err)
	}

	rec := MoveRecord{Component: component, From: src, To: dest, Version: vFlip, When: time.Now()}
	m.mu.Lock()
	m.moves = append(m.moves, rec)
	if len(m.moves) > 256 {
		m.moves = m.moves[len(m.moves)-256:]
	}
	m.mu.Unlock()
	m.cfg.Logger.Info("component moved", "component", component, "from", src, "to", dest, "epoch", fmt.Sprint(vFlip))
	return nil
}

// waitGroupReady blocks until a group has at least one routable replica.
func (m *Manager) waitGroupReady(ctx context.Context, group string) error {
	deadline := time.Now().Add(moveReadyTimeout)
	for {
		if len(m.store.Snapshot().ReadyAddrs(group)) > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("manager: group %q has no ready replica", group)
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		case <-m.ctx.Done():
			return fmt.Errorf("manager: stopped")
		}
	}
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
