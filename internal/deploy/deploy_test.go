package deploy

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/testpkg"
	"repro/weaver"
)

// fill adapts weaver.FillComponent for deployers.
func fill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	return weaver.FillComponent(impl, name, logger, resolve, nil)
}

func startDeployment(t *testing.T, cfg manager.Config) *InProcess {
	t.Helper()
	ctx := context.Background()
	d, err := StartInProcess(ctx, Options{Config: cfg, Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func TestCrossProcessCall(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()

	chain, err := Get[testpkg.Chain](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chain.Relay(ctx, "x", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != "x..." {
		t.Errorf("Relay = %q", got)
	}

	// Chain and Echo live in different groups, so Echo must have been
	// started on demand (the StartComponent flow).
	if n := d.Manager.ReplicaCount("Echo"); n == 0 {
		t.Error("Echo group has no replicas after a cross-group call")
	}
	if n := d.Manager.ReplicaCount("Chain"); n == 0 {
		t.Error("Chain group has no replicas")
	}
}

func TestColocatedGroupSharesProcessState(t *testing.T) {
	// Chain and Echo colocated: calls between them stay local, so Echo
	// never gets its own group replicas.
	d := startDeployment(t, manager.Config{
		App: "test",
		Groups: map[string][]string{
			"pair": {"repro/internal/testpkg/Chain", "repro/internal/testpkg/Echo"},
		},
	})
	ctx := context.Background()
	chain, err := Get[testpkg.Chain](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Relay(ctx, "y", 2); err != nil {
		t.Fatal(err)
	}
	if n := d.Manager.ReplicaCount("pair"); n == 0 {
		t.Error("pair group has no replicas")
	}
}

func TestApplicationErrorAcrossProcesses(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()
	failer, err := Get[testpkg.Failer](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failer.Maybe(ctx, false); err != nil {
		t.Fatalf("non-failing call: %v", err)
	}
	_, err = failer.Maybe(ctx, true)
	if err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Errorf("err = %v", err)
	}
	var re *weaver.RemoteError
	if !asError(err, &re) {
		t.Errorf("error type = %T, want *weaver.RemoteError", err)
	}
}

func asError[T error](err error, target *T) bool {
	for err != nil {
		if e, ok := err.(T); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestRoutedComponentAffinity(t *testing.T) {
	d := startDeployment(t, manager.Config{
		App: "test",
		Autoscale: map[string]autoscale.Config{
			"Counter": {MinReplicas: 3, MaxReplicas: 3},
		},
	})
	ctx := context.Background()
	counter, err := Get[testpkg.Counter](ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for all three replicas to be live AND for the resulting routing
	// assignment to reach the driver's balancer, so it is stable before the
	// first call. Waiting only on the manager's count races with the async
	// routing push: an early call could still route on a 1-replica view.
	waitFor(t, 10*time.Second, func() bool {
		return d.Manager.ReplicaCount("Counter") == 3 &&
			d.RoutingReplicas("repro/internal/testpkg/Counter") == 3
	})

	// Each key's counts must be consistent, i.e. all increments for a key
	// land on the same replica. With 3 replicas and per-replica state,
	// broken affinity would scatter increments and produce values < n.
	const n = 30
	for _, key := range []string{"alpha", "beta", "gamma", "delta"} {
		var last int64
		for i := 0; i < n; i++ {
			v, err := counter.Add(ctx, key, 1)
			if err != nil {
				t.Fatalf("Add(%s): %v", key, err)
			}
			last = v
		}
		if last != n {
			t.Errorf("key %s: final count = %d, want %d (affinity broken)", key, last, n)
		}
	}
}

// TestMirrorCrossesTheDataPlane sends a value with every kind of field the
// code generator serializes to a remote Echo replica and back: the
// generated codecs carry it both ways unchanged, except the field tagged
// weaver:"-".
func TestMirrorCrossesTheDataPlane(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()
	echo, err := Get[testpkg.Echo](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	depth := int8(-3)
	pdepth := &depth
	in := testpkg.Kinds{
		Names:   map[string]int32{"b": 2, "a": 1},
		ByID:    map[int64]string{7: "seven", -1: "minus one"},
		Flags:   map[bool]uint16{false: 1, true: 2},
		Leaf:    &testpkg.Leaf{A: 1 << 40, B: true, C: []uint32{4, 5}},
		Depth:   &pdepth,
		Arr:     [3]int16{1, -2, 3},
		Blob:    []byte("blob"),
		At:      time.Unix(1700000000, 42).UTC(),
		TTL:     1500 * time.Millisecond,
		Grid:    [][]string{{"a", "b"}, {"c"}},
		Marks:   make([]struct{}, 3),
		Label:   "label",
		Labels:  []testpkg.Label{"x", "y"},
		U:       9,
		I:       -9,
		Skipped: "stays home",
	}
	out, err := echo.Mirror(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	want := in
	want.Skipped = ""
	if !reflect.DeepEqual(out, want) {
		t.Errorf("Mirror returned %+v, want %+v", out, want)
	}
}

func TestCrashedReplicaIsRestarted(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()
	echoClient, err := Get[testpkg.Echo](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echoClient.Echo(ctx, "pre"); err != nil {
		t.Fatal(err)
	}

	// Crash the only Echo replica.
	if !d.KillReplica("Echo/0") {
		t.Fatal("Echo/0 not found")
	}

	// Calls must succeed again once the manager restarts the replica.
	deadline := time.Now().Add(15 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := echoClient.Echo(cctx, "post")
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Echo never recovered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestAutoscaleUp(t *testing.T) {
	d := startDeployment(t, manager.Config{
		App:           "test",
		ScaleInterval: 100 * time.Millisecond,
		Autoscale: map[string]autoscale.Config{
			"Echo": {MinReplicas: 1, MaxReplicas: 4, TargetLoadPerReplica: 50, ScaleDownDelay: time.Hour},
		},
	})
	ctx := context.Background()
	echoClient, err := Get[testpkg.Echo](ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	// Drive far more than 50 calls/sec at Echo.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cctx, cancel := context.WithTimeout(ctx, time.Second)
				_, _ = echoClient.Echo(cctx, "load")
				cancel()
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	waitFor(t, 20*time.Second, func() bool { return d.Manager.ReplicaCount("Echo") >= 2 })
}

func TestManagerAggregatesTelemetry(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()
	chain, err := Get[testpkg.Chain](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := chain.Relay(ctx, "t", 2); err != nil {
			t.Fatal(err)
		}
	}
	// Reports flow on a 100ms cadence in tests.
	waitFor(t, 10*time.Second, func() bool {
		edges := d.Manager.Graph().Edges()
		for _, e := range edges {
			if e.Caller == "repro/internal/testpkg/Chain" && e.Callee == "repro/internal/testpkg/Echo" && e.Remote > 0 {
				return true
			}
		}
		return false
	})

	merged := d.Manager.MergedMetrics()
	if len(merged) == 0 {
		t.Error("no merged metrics at manager")
	}
	found := false
	for name := range merged {
		if strings.HasPrefix(name, "component.calls.Echo") {
			found = true
		}
	}
	if !found {
		t.Errorf("no Echo call counters in merged metrics: %v", keys(merged))
	}
}

func TestStatusReport(t *testing.T) {
	d := startDeployment(t, manager.Config{App: "test"})
	ctx := context.Background()
	echo, err := Get[testpkg.Echo](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	// Remote conns are lazy: Get alone no longer waits for a replica, but a
	// completed call proves one registered and served it.
	if _, err := echo.Echo(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	status := d.Manager.Status()
	var sawMain, sawEcho bool
	for _, g := range status {
		if g.Name == "main" && len(g.Replicas) == 1 {
			sawMain = true
		}
		if g.Name == "Echo" && len(g.Replicas) >= 1 {
			sawEcho = true
			if g.Replicas[0].Addr == "" {
				t.Error("Echo replica has no address")
			}
		}
	}
	if !sawMain || !sawEcho {
		t.Errorf("status missing groups: %+v", status)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

var _ = fmt.Sprintf // reserved for debugging
