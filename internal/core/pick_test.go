package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/routing"
	"repro/internal/rpc"
)

// pickCounts makes n picks for m on conn and counts them by address.
func pickCounts(conn *DataPlaneConn, m *callMeta, n int) map[string]int {
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		seen[picked(conn, m, false)]++
	}
	return seen
}

// trippedConn returns a conn on a fake clock that has applied a push of
// addrs and asgn and whose breakers for sick are open. The clock never
// moves, so no cooldown ends and no breaker half-opens.
func trippedConn(t *testing.T, addrs []string, asgn *routing.Assignment, sick ...string) *DataPlaneConn {
	t.Helper()
	conn := NewDataPlaneConn("pick_test/C", ConnOptions{DisableHedging: true, Clock: clock.NewFake()})
	t.Cleanup(conn.Close)
	conn.UpdateRouting(1, addrs, asgn)
	for _, addr := range sick {
		for i := 0; i < 8; i++ {
			report(conn, addr, true)
		}
		if got := conn.BreakerState(addr); got != rpc.BreakerOpen {
			t.Fatalf("%s's breaker is %v after 8 failures, want open", addr, got)
		}
	}
	return conn
}

// rotationAddrs is the table the rotation tests push.
var rotationAddrs = []string{"a:1", "b:1", "c:1"}

// evenOver fails t unless 30 picks for m spread 10 to each address.
func evenOver(t *testing.T, conn *DataPlaneConn, m *callMeta, addrs []string) {
	t.Helper()
	seen := pickCounts(conn, m, 30)
	for _, addr := range addrs {
		if seen[addr] != 10 {
			t.Errorf("%s picked %d of 30 times, want 10", addr, seen[addr])
		}
	}
}

func TestUnshardedCallRotatesOverEveryEntry(t *testing.T) {
	conn := NewDataPlaneConn("rotate_test/C", ConnOptions{})
	defer conn.Close()
	conn.UpdateRouting(1, rotationAddrs, nil)
	evenOver(t, conn, &callMeta{}, rotationAddrs)
}

func TestUnshardedCallIgnoresAssignment(t *testing.T) {
	// An unsharded call rotates over the whole table even when the push's
	// assignment maps every key to one replica; a sharded call follows it.
	conn := NewDataPlaneConn("unsharded_test/C", ConnOptions{})
	defer conn.Close()
	toA := routing.EqualSlices(1, rotationAddrs[:1], 4) // every key -> a:1
	conn.UpdateRouting(1, rotationAddrs, &toA)
	evenOver(t, conn, &callMeta{}, rotationAddrs)
	sharded := &callMeta{Shard: routing.KeyHash("k"), HasShard: true}
	if seen := pickCounts(conn, sharded, 30); seen["a:1"] != 30 {
		t.Errorf("sharded calls under that assignment went to %v, want a:1 only", seen)
	}
}

func TestShardedCallWithoutAssignmentRotates(t *testing.T) {
	// A sharded call on a push without an assignment falls back to the
	// rotation over the whole table.
	conn := NewDataPlaneConn("fallback_test/C", ConnOptions{})
	defer conn.Close()
	conn.UpdateRouting(1, rotationAddrs, nil)
	evenOver(t, conn, &callMeta{Shard: routing.KeyHash("k"), HasShard: true}, rotationAddrs)
}

func TestPickOnEmptyTableFindsNone(t *testing.T) {
	// Before any push a pick finds no replica, sharded or not, whether or
	// not it asks for an untried one.
	conn := NewDataPlaneConn("empty_test/C", ConnOptions{})
	defer conn.Close()
	for _, m := range []*callMeta{{}, {Shard: routing.KeyHash("k"), HasShard: true}} {
		for _, untried := range []bool{false, true} {
			if got := picked(conn, m, untried); got != "" {
				t.Errorf("pick (sharded %v, untried %v) on an empty table = %q, want none", m.HasShard, untried, got)
			}
		}
	}
}

func TestEmptiedSickTableFailsWithErrNoReplicas(t *testing.T) {
	// A push that empties a table whose breakers are open leaves nothing to
	// fail open onto: the call waits out its grace and fails with
	// ErrNoReplicas.
	const component = "emptied_test/C"
	conn := trippedConn(t, []string{"a:1"}, nil, "a:1")
	conn.UpdateRouting(2, nil, nil)
	clk := conn.opts.Clock.(*clock.Fake)
	done := invokeAsync(conn, component)
	eventually(t, "the call to arm its grace timer", func() bool { return clk.Waiting() == 1 })
	clk.Advance(noReplicaGrace)
	select {
	case err := <-done:
		if !errors.Is(err, routing.ErrNoReplicas) {
			t.Fatalf("err = %v, want ErrNoReplicas", err)
		}
	case <-time.After(wallBound):
		t.Fatal("call still waiting after its grace elapsed")
	}
}

func TestShardedCallStaysOnSliceOwner(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	asgn := routing.EqualSlices(1, addrs, 4)
	conn := NewDataPlaneConn("sticky_test/C", ConnOptions{})
	defer conn.Close()
	conn.UpdateRouting(1, addrs, &asgn)
	for _, key := range []string{"user-1", "user-2", "user-3"} {
		m := &callMeta{Shard: routing.KeyHash(key), HasShard: true}
		want := asgn.Find(m.Shard)[0]
		for i := 0; i < 20; i++ {
			if got := picked(conn, m, false); got != want {
				t.Fatalf("key %s pick %d went to %s, want its owner %s", key, i, got, want)
			}
		}
	}
}

func TestEmptyPushClearsAssignment(t *testing.T) {
	conn := NewDataPlaneConn("clear_test/C", ConnOptions{})
	defer conn.Close()
	asgn := routing.EqualSlices(1, []string{"a:1"}, 2)
	conn.UpdateRouting(1, []string{"a:1"}, &asgn)
	m := &callMeta{Shard: routing.KeyHash("k"), HasShard: true}
	if got := conn.Owners(m.Shard); !slices.Equal(got, []string{"a:1"}) {
		t.Fatalf("owners = %v, want [a:1]", got)
	}
	conn.UpdateRouting(2, nil, nil)
	if got := conn.Owners(m.Shard); got != nil {
		t.Errorf("owners after an empty push = %v, want none", got)
	}
	if got := picked(conn, m, false); got != "" {
		t.Errorf("sharded pick after an empty push = %q, want none", got)
	}
}

func TestPickFailsOpenWhenEveryBreakerOpen(t *testing.T) {
	// With every breaker open a pick still returns a replica: a wrong
	// health signal degrades to plain rotation, never to an outage.
	conn := trippedConn(t, []string{"a:1", "b:1"}, nil, "a:1", "b:1")
	if seen := pickCounts(conn, &callMeta{}, 10); seen["a:1"]+seen["b:1"] != 10 {
		t.Errorf("picks with every breaker open = %v, want 10 on a:1 or b:1", seen)
	}
}

func TestShardedPickSkipsSickOwner(t *testing.T) {
	// A sharded pick prefers a healthy owner of its slice, and fails open
	// to a sick owner rather than leave its slice.
	asgn := routing.Assignment{Version: 1, Slices: []routing.Slice{
		{Start: 0, Replicas: []string{"r1:1", "r2:1"}},
		{Start: 1 << 63, Replicas: []string{"r1:1"}},
	}}
	conn := trippedConn(t, []string{"r1:1", "r2:1", "r3:1"}, &asgn, "r1:1")
	shared := &callMeta{Shard: 7, HasShard: true}
	if seen := pickCounts(conn, shared, 20); seen["r2:1"] != 20 {
		t.Errorf("picks in the slice owned by r1 (sick) and r2 = %v, want r2:1 only", seen)
	}
	alone := &callMeta{Shard: 1<<63 + 7, HasShard: true}
	if seen := pickCounts(conn, alone, 20); seen["r1:1"] != 20 {
		t.Errorf("picks in the slice owned by r1 (sick) alone = %v, want r1:1 only", seen)
	}
}

func TestPickSkipsEveryOpenBreaker(t *testing.T) {
	// With 9 of 10 breakers open, every call goes to the one healthy
	// replica: the pick checks every candidate before it fails open.
	const component = "skip_every/C"
	addrs := make([]string, 10)
	calls := make([]*atomic.Int64, len(addrs))
	for i := range addrs {
		_, addrs[i], calls[i] = startCounting(t, component, rpc.ServerOptions{})
	}
	clk := clock.NewFake() // never advanced: no open breaker half-opens
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()
	conn.UpdateRouting(1, addrs, nil)
	for _, addr := range addrs[1:] {
		for i := 0; i < 8; i++ {
			report(conn, addr, true)
		}
	}
	for i := 0; i < 20; i++ {
		if err := invoke(conn, component); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := calls[0].Load(); got != 20 {
		t.Errorf("the healthy replica executed %d of 20 calls; the rest failed open onto open breakers", got)
	}
}
