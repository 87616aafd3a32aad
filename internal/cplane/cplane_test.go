package cplane

// Pure-function tests for the extracted reconcilers: no envelopes, no
// subprocesses, no clocks beyond explicit time values. This is the direct
// payoff of the reconciler/actuator split — the control plane's decision
// logic is exercised as plain values.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/placement"
)

// mkState builds a state with one group of n ready replicas hosting comps.
func mkState(group string, n int, comps ...string) *State {
	s := NewState()
	g, err := s.AddGroup(group, comps, map[string]bool{})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		id := group + "/" + string(rune('0'+i))
		g.Replicas[id] = &Replica{
			ID: id, Addr: "addr-" + id, Ready: true, Healthy: true,
			LastReport: time.Unix(1000, 0), Applied: map[string]uint64{},
		}
		g.NextID++
	}
	return s
}

func countStopping(s *State, group string) int {
	n := 0
	for _, r := range s.Groups[group].Replicas {
		if r.Stopping {
			n++
		}
	}
	return n
}

// TestReconcileScaleDecisionTable drives the autoscale reconciler through
// a decision table: (current replicas, oracle answer) -> (starts, stops).
func TestReconcileScaleDecisionTable(t *testing.T) {
	now := time.Unix(1000, 0)
	cases := []struct {
		name      string
		current   int
		want      int
		wantStart int
		wantStop  int
	}{
		{"steady", 3, 3, 0, 0},
		{"scale-up-one", 2, 3, 1, 0},
		{"scale-up-burst", 1, 4, 3, 0},
		{"scale-down-one", 3, 2, 0, 1},
		{"scale-down-floor", 4, 1, 0, 3},
		{"down-to-zero-keeps-nothing-starting", 2, 0, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := mkState("g", tc.current, "app/X")
			oracle := func(group string, current int, load float64, _ time.Time) int {
				if group != "g" {
					t.Fatalf("oracle asked about group %q", group)
				}
				if current != tc.current {
					t.Fatalf("oracle got current=%d, want %d", current, tc.current)
				}
				return tc.want
			}
			des := ReconcileScale(obs, oracle, now, 5*time.Second)
			acts := Diff(obs, des)
			gotStart := 0
			for _, a := range acts.Start {
				gotStart += a.N
			}
			if gotStart != tc.wantStart {
				t.Errorf("starts = %d, want %d", gotStart, tc.wantStart)
			}
			if len(acts.Stop) != tc.wantStop {
				t.Errorf("stops = %d, want %d", len(acts.Stop), tc.wantStop)
			}
			if got := countStopping(des, "g"); got != tc.wantStop {
				t.Errorf("stopping marks = %d, want %d", got, tc.wantStop)
			}
			if (tc.wantStart > 0 || tc.wantStop > 0) && len(acts.Push) == 0 && tc.wantStop > 0 {
				t.Error("scale-down produced no routing push")
			}
			// Observed snapshot must be untouched (copy-on-write contract).
			if countStopping(obs, "g") != 0 || obs.Groups["g"].Starting != 0 {
				t.Error("reconciler mutated the observed state")
			}
		})
	}
}

func TestReconcileScaleStopsNewestFirst(t *testing.T) {
	obs := mkState("g", 3, "app/X")
	des := ReconcileScale(obs, func(string, int, float64, time.Time) int { return 2 },
		time.Unix(1000, 0), 5*time.Second)
	if !des.Groups["g"].Replicas["g/2"].Stopping {
		t.Error("newest replica g/2 not chosen for stop")
	}
	if des.Groups["g"].Replicas["g/0"].Stopping {
		t.Error("oldest replica g/0 chosen for stop")
	}
}

func TestReconcileScaleMarksStaleUnhealthy(t *testing.T) {
	obs := mkState("g", 2, "app/X")
	obs.Groups["g"].Replicas["g/0"].LastReport = time.Unix(100, 0) // long ago
	now := time.Unix(1000, 0)
	des := ReconcileScale(obs, func(_ string, current int, _ float64, _ time.Time) int { return current },
		now, 5*time.Second)
	if des.Groups["g"].Replicas["g/0"].Healthy {
		t.Error("stale replica still healthy")
	}
	if !des.Groups["g"].Replicas["g/1"].Healthy {
		t.Error("fresh replica marked unhealthy")
	}
	// A health flip must re-broadcast routing.
	acts := Diff(obs, des)
	if len(acts.Push) != 1 || acts.Push[0] != "g" {
		t.Errorf("push = %v, want [g]", acts.Push)
	}
}

func TestReconcileScaleSkipsMainAndEmptyGroups(t *testing.T) {
	obs := mkState("main", 1)
	if _, err := obs.AddGroup("empty", []string{"app/E"}, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	des := ReconcileScale(obs, func(string, int, float64, time.Time) int { return 5 },
		time.Unix(1000, 0), 5*time.Second)
	if !Diff(obs, des).Empty() {
		t.Error("reconciler acted on main or an empty group")
	}
}

// TestReconcileRestartPolicy is the crash-restart decision table.
func TestReconcileRestartPolicy(t *testing.T) {
	cases := []struct {
		name        string
		deliberate  bool
		restarts    int
		maxRestarts int
		comps       []string
		want        bool
	}{
		{"crash-restarts", false, 0, 8, []string{"app/X"}, true},
		{"deliberate-exit-does-not", true, 0, 8, []string{"app/X"}, false},
		{"budget-exhausted", false, 8, 8, []string{"app/X"}, false},
		{"last-budget-slot", false, 7, 8, []string{"app/X"}, true},
		{"empty-group-not-worth-it", false, 0, 8, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := mkState("g", 1, tc.comps...)
			obs.Groups["g"].Restarts = tc.restarts
			des := ReconcileRestart(obs, "g", tc.deliberate, tc.maxRestarts)
			if got := des != nil; got != tc.want {
				t.Fatalf("restart = %v, want %v", got, tc.want)
			}
			if des == nil {
				return
			}
			if des.Groups["g"].Starting != 1 {
				t.Errorf("starting = %d, want 1", des.Groups["g"].Starting)
			}
			if des.Groups["g"].Restarts != tc.restarts+1 {
				t.Errorf("restarts = %d, want %d", des.Groups["g"].Restarts, tc.restarts+1)
			}
			acts := Diff(obs, des)
			if len(acts.Start) != 1 || acts.Start[0].N != 1 {
				t.Errorf("diff starts = %+v, want one single-replica start", acts.Start)
			}
		})
	}
	if ReconcileRestart(mkState("g", 1, "app/X"), "nope", false, 8) != nil {
		t.Error("unknown group restarted")
	}
}

func TestReconcileResize(t *testing.T) {
	obs := mkState("g", 3, "app/X")
	des, err := ReconcileResize(obs, "g", 5)
	if err != nil {
		t.Fatal(err)
	}
	if des.Groups["g"].Starting != 2 {
		t.Errorf("starting = %d, want 2", des.Groups["g"].Starting)
	}
	des, err = ReconcileResize(obs, "g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := countStopping(des, "g"); got != 2 {
		t.Errorf("stopping = %d, want 2", got)
	}
	if des.Groups["g"].Replicas["g/0"].Stopping {
		t.Error("oldest replica stopped first")
	}
	if _, err := ReconcileResize(obs, "g", -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := ReconcileResize(obs, "nope", 1); err == nil {
		t.Error("unknown group accepted")
	}
	// Already-stopping replicas count toward neither live nor re-stop.
	obs.Groups["g"].Replicas["g/2"].Stopping = true
	des, err = ReconcileResize(obs, "g", 2)
	if err != nil {
		t.Fatal(err)
	}
	if acts := Diff(obs, des); len(acts.Stop) != 0 || len(acts.Start) != 0 {
		t.Errorf("resize to current live size produced work: %+v", acts)
	}
}

// TestReconcilePlacementDiffApplication: the placement reconciler turns an
// observed grouping plus a lopsided call graph into concrete moves, and
// applying them via Relocate yields a state whose grouping matches what
// placement.Diff asked for.
func TestReconcilePlacementDiffApplication(t *testing.T) {
	// A and B are chatty; B lives alone. The planner should colocate them.
	g := &callgraph.Graph{Edges: []callgraph.Edge{
		{Caller: "app/A", Callee: "app/B", Calls: 10000, Remote: 10000},
		{Caller: "", Callee: "app/A", Calls: 1},
	}}
	obs := NewState()
	routed := map[string]bool{}
	if _, err := obs.AddGroup("ga", []string{"app/A"}, routed); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.AddGroup("gb", []string{"app/B"}, routed); err != nil {
		t.Fatal(err)
	}
	moves := ReconcilePlacement(obs, g, placement.Config{MaxGroupSize: 4}, 0.05, 100)
	if len(moves) == 0 {
		t.Fatal("no moves recommended for a chatty remote pair")
	}
	work := obs.Clone()
	for _, mv := range moves {
		if work.Groups[mv.To] == nil {
			if _, err := work.AddGroup(mv.To, nil, routed); err != nil {
				t.Fatal(err)
			}
		}
		if err := work.Relocate(mv.Component, mv.To); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckInvariants(work); err != nil {
		t.Fatalf("post-move invariants: %v", err)
	}
	if work.CompGroup["app/A"] != work.CompGroup["app/B"] {
		t.Errorf("A in %q, B in %q after applying moves; want colocated",
			work.CompGroup["app/A"], work.CompGroup["app/B"])
	}

	// Below the call threshold the reconciler must stay quiet.
	thin := &callgraph.Graph{Edges: []callgraph.Edge{
		{Caller: "app/A", Callee: "app/B", Calls: 10, Remote: 10},
	}}
	if mv := ReconcilePlacement(obs, thin, placement.Config{MaxGroupSize: 4}, 0.05, 100); mv != nil {
		t.Errorf("moves on a thin graph: %v", mv)
	}
}

func TestStoreCopyOnWrite(t *testing.T) {
	st := NewStore(mkState("g", 1, "app/X"))
	before := st.Snapshot()

	after := st.Update(func(s *State) {
		s.Groups["g"].Replicas["g/0"].Healthy = false
		s.NextEpoch()
	})
	if before.Groups["g"].Replicas["g/0"].Healthy == false {
		t.Error("update mutated the prior snapshot")
	}
	if after.Version != before.Version+1 {
		t.Errorf("version = %d, want %d", after.Version, before.Version+1)
	}
	if after.RouteEpoch != before.RouteEpoch+1 {
		t.Errorf("epoch = %d, want %d", after.RouteEpoch, before.RouteEpoch+1)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	s := mkState("g", 1, "app/X")
	if err := CheckInvariants(s); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	orphan := s.Clone()
	orphan.CompGroup["app/X"] = "elsewhere"
	if err := CheckInvariants(orphan); err == nil {
		t.Error("orphaned hosting accepted")
	}
	stale := s.Clone()
	stale.LastPush["app/X"] = Push{Version: 99}
	if err := CheckInvariants(stale); err == nil || !strings.Contains(err.Error(), "RouteEpoch") {
		t.Errorf("push beyond epoch accepted: %v", err)
	}
	double := s.Clone()
	double.Groups["g2"] = &Group{Name: "g2", Components: []string{"app/X"},
		Routed: map[string]bool{}, Replicas: map[string]*Replica{}}
	if err := CheckInvariants(double); err == nil {
		t.Error("doubly-hosted component accepted")
	}
}

func TestRelocate(t *testing.T) {
	s := NewState()
	routed := map[string]bool{"app/R": true}
	if _, err := s.AddGroup("src", []string{"app/R", "app/S"}, routed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGroup("dst", nil, routed); err != nil {
		t.Fatal(err)
	}
	if err := s.Relocate("app/R", "dst"); err != nil {
		t.Fatal(err)
	}
	if s.CompGroup["app/R"] != "dst" || !s.Groups["dst"].Routed["app/R"] {
		t.Error("routed flag or hosting lost in relocation")
	}
	if len(s.Groups["src"].Components) != 1 || s.Groups["src"].Components[0] != "app/S" {
		t.Errorf("src components = %v", s.Groups["src"].Components)
	}
	if err := CheckInvariants(s); err != nil {
		t.Fatal(err)
	}
}
