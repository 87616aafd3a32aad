package repro

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/boutique"
	"repro/internal/deploy"
	"repro/internal/loadgen"
	"repro/internal/logging"
	"repro/internal/manager"
)

// TestLivePlacementConvergence deploys the boutique fully distributed (one
// component per group), turns on the live re-placement loop, drives load,
// and checks that the loop converges: the running grouping's offline score
// catches up to the planner's recommendation, and — the end-to-end claim —
// the local-call fraction actually measured on the wire in a fresh window
// matches that offline score within 5 points.
func TestLivePlacementConvergence(t *testing.T) {
	ctx := context.Background()
	const minGain = 0.05 // the manager's fixed re-placement threshold
	const minCalls = 100 // calls the manager's graph needs before it plans
	cfg := manager.Config{
		App:               "converge",
		DefaultAutoscale:  autoscale.Config{MinReplicas: 1, MaxReplicas: 1},
		PlacementInterval: 200 * time.Millisecond,
		Logger:            logging.New(logging.Options{Component: "manager", Min: logging.LevelError}),
	}
	d, err := deploy.StartInProcess(ctx, deploy.Options{Config: cfg, Fill: benchFill})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	fe, err := deploy.Get[boutique.Frontend](ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	// Background load: a boutique-shaped op mix, heavier on reads, driven
	// closed-loop from a few clients.
	ops := []loadgen.Op{
		loadgen.OpIndex, loadgen.OpBrowse, loadgen.OpBrowse, loadgen.OpBrowse,
		loadgen.OpAddToCart, loadgen.OpViewCart, loadgen.OpCheckout,
	}
	target := &loadgen.ComponentTarget{Frontend: fe}
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		loadErr atomic.Value
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a user (and so a cart): AddToCart always
			// precedes Checkout within a worker's cycle.
			user := "user-" + string(rune('a'+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := ops[i%len(ops)]
				if err := target.Do(ctx, op, user, "USD", "OLJCESPC7Z"); err != nil {
					loadErr.Store(err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
		if err, ok := loadErr.Load().(error); ok {
			t.Fatalf("load failed during re-placement: %v", err)
		}
	}()

	// Wait for the control loop to quiesce: it has applied at least one
	// move and the remaining gain is below its threshold, observed twice in
	// a row so we aren't reading a mid-move snapshot.
	deadline := time.Now().Add(30 * time.Second)
	quiet := 0
	var st manager.PlacementStatus
	for quiet < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("re-placement did not converge: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
		st = d.Manager.PlacementStatus()
		if len(st.Moves) > 0 && st.TotalCalls >= minCalls &&
			st.RecommendedScore-st.CurrentScore < minGain {
			quiet++
		} else {
			quiet = 0
		}
	}

	// Measure a fresh window on the converged placement: reset the merged
	// graph, let load run, then leave slack for the final proclet reports.
	d.Manager.Graph().Reset()
	time.Sleep(1500 * time.Millisecond)
	time.Sleep(300 * time.Millisecond) // flush in-flight load reports

	var calls, remote uint64
	for _, e := range d.Manager.Graph().Edges() {
		if e.Caller == "" {
			continue
		}
		calls += e.Calls
		remote += e.Remote
	}
	if calls == 0 {
		t.Fatal("no component-to-component calls observed in the measurement window")
	}
	measured := 1 - float64(remote)/float64(calls)

	final := d.Manager.PlacementStatus()
	t.Logf("moves=%d measured_local=%.3f current_score=%.3f recommended_score=%.3f calls=%d",
		len(final.Moves), measured, final.CurrentScore, final.RecommendedScore, calls)

	// The live loop's grouping must be as good as the planner's
	// recommendation (within the loop's own gain threshold)...
	if final.CurrentScore < final.RecommendedScore-minGain {
		t.Errorf("converged grouping scores %.3f, recommendation %.3f: loop stopped short",
			final.CurrentScore, final.RecommendedScore)
	}
	// ...and what the wire actually saw must match the offline score: the
	// paper's claim that the planner's model predicts real locality.
	if diff := measured - final.CurrentScore; diff < -0.05 || diff > 0.05 {
		t.Errorf("measured local fraction %.3f differs from offline score %.3f by more than 5 points",
			measured, final.CurrentScore)
	}
}
