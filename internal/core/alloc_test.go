package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestAllocsHedgedInvoke gates hedging's standing cost: an idempotent
// Invoke with a hedge armed — HedgeAfter an hour, so it never fires — must
// allocate no more than the same call with hedging disabled. The conns
// route to two replicas, since a one-replica conn arms no hedge at all.
// The race runs on the caller's goroutine with a pooled wheel alarm, so
// arming a hedge adds no goroutine, context, channel or timer per call.
// Both measurements include the local echo servers' allocations, which
// are the same for either conn. Wired into `make allocs`.
func TestAllocsHedgedInvoke(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	const component = "alloc_hedge/C"
	_, addrA, _ := startCounting(t, component, rpc.ServerOptions{})
	_, addrB, _ := startCounting(t, component, rpc.ServerOptions{})
	spec := emptySpec(false)
	measure := func(opts ConnOptions) float64 {
		conn := NewDataPlaneConn(component, opts)
		defer conn.Close()
		conn.UpdateRouting(1, []string{addrA, addrB}, nil)
		ctx := context.Background()
		call := func() {
			var args, res emptyMsg
			if err := conn.Invoke(ctx, component, spec, &args, &res, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			call() // dial and fill the pools
		}
		return testing.AllocsPerRun(500, call)
	}
	unhedged := measure(ConnOptions{DisableHedging: true})
	hedged := measure(ConnOptions{HedgeAfter: time.Hour})
	t.Logf("allocs/op: hedged %.0f, unhedged %.0f", hedged, unhedged)
	if hedged > unhedged {
		t.Errorf("hedge-armed Invoke allocates %.0f/op, unhedged %.0f/op; arming a hedge must cost no allocation", hedged, unhedged)
	}
}
