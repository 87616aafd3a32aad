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
	"repro/internal/placement"
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
		placement.Config{}, placementMinGain, placementMinCalls)
	for _, mv := range moves {
		if err := m.MoveComponent(ctx, mv.Component, mv.To); err != nil {
			return fmt.Errorf("moving %s from %s to %s: %w", mv.Component, mv.From, mv.To, err)
		}
	}
	return nil
}

// moveReadyTimeout bounds waiting for the destination group's first ready
// replica.
const moveReadyTimeout = 20 * time.Second

// MoveComponent relocates a component to another colocation group at
// runtime, drain-safely. Each step after the first is one actuator call:
//
//  1. Ensure the destination group exists and runs a ready replica.
//  2. Host the component on every destination replica and wait until its
//     handlers serve (hostOn).
//  3. In one store update, flip ownership in the control-plane state and
//     stamp the component's routing under a fresh epoch vFlip; push it to
//     every proclet and wait for all acks (flip). From each proclet's ack
//     on, its new calls target the destination; calls already in flight
//     complete where they started.
//  4. Re-push hosting to the destination's replicas, so those that
//     registered mid-move host the component too (hostOn; the others ack
//     at once).
//  5. Tell the old hosts to stop the component: each demotes its local
//     route, unregisters the handlers, and acks once in-flight calls have
//     drained (drain). Stragglers that still reach the old hosts are
//     refused with a retryable never-executed status.
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

	if err := m.hostOn(ctx, dest, component); err != nil {
		return fmt.Errorf("manager: hosting %s on %s: %w", component, dest, err)
	}
	vFlip, srcReps, err := m.flip(ctx, component, dest)
	if err != nil {
		// Ownership already flipped; leave the old hosts serving as a
		// safety net for whoever missed the ack and report the failure.
		return fmt.Errorf("manager: broadcasting routing for %s: %w", component, err)
	}
	if err := m.hostOn(ctx, dest, component); err != nil {
		return fmt.Errorf("manager: re-hosting %s on %s: %w", component, dest, err)
	}
	if err := m.drain(ctx, srcReps, component, vFlip); err != nil {
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
