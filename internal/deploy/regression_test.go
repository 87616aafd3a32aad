package deploy

import (
	"context"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/manager"
	"repro/internal/testpkg"
)

const (
	storeName      = "repro/internal/testpkg/Store"
	storeProxyName = "repro/internal/testpkg/StoreProxy"
)

// TestColocatedRoutedDispatchHonorsAssignment is the regression test for
// ROADMAP item 1 (assignment-aware local dispatch). Store (routed) and
// StoreProxy (its colocated caller) share a 2-replica group. A proxy
// replica serving a call for a key the assignment maps to its sibling must
// forward it over the data plane instead of taking the local fast path;
// before the fix each proxy always answered from its own colocated Store,
// so reads through the proxy diverged from affinity-routed writes whenever
// the round-robin picked the non-owner replica.
func TestColocatedRoutedDispatchHonorsAssignment(t *testing.T) {
	testpkg.ResetStoreEvents()
	d := startDeployment(t, manager.Config{
		App: "test",
		Groups: map[string][]string{
			"kv": {storeName, storeProxyName},
		},
		Autoscale: map[string]autoscale.Config{
			"kv": {MinReplicas: 2, MaxReplicas: 2},
		},
	})
	ctx := context.Background()

	store, err := Get[testpkg.Store](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := Get[testpkg.StoreProxy](ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	// Both replicas live, and the 2-replica assignment applied by the
	// driver AND by each colocated proxy replica's own conn.
	waitFor(t, 10*time.Second, func() bool {
		if d.Manager.ReplicaCount("kv") != 2 || d.RoutingReplicas(storeName) != 2 {
			return false
		}
		for _, id := range []string{"kv/0", "kv/1"} {
			p, ok := d.Proclet(id)
			if !ok || p.RoutingReplicas(storeName) != 2 {
				return false
			}
		}
		return true
	})

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	// Affinity-routed writes from the driver, reads through the proxy.
	// Several reads per key so the round-robin lands on both proxy
	// replicas; every one must observe the written value.
	for i, key := range keys {
		want := int64(100 + i)
		if _, err := store.Put(ctx, key, want); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		for j := 0; j < 4; j++ {
			got, err := proxy.GetVia(ctx, key)
			if err != nil {
				t.Fatalf("GetVia(%s): %v", key, err)
			}
			if got != want {
				t.Fatalf("GetVia(%s) = %d, want %d: colocated proxy read a non-owner replica", key, got, want)
			}
		}
	}

	// Writes through the proxy, affinity-routed reads from the driver.
	for i, key := range keys {
		want := int64(200 + i)
		for j := 0; j < 2; j++ {
			if _, err := proxy.PutVia(ctx, key, want); err != nil {
				t.Fatalf("PutVia(%s): %v", key, err)
			}
		}
		got, err := store.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if got != want {
			t.Fatalf("Get(%s) = %d, want %d: proxy write landed on a non-owner replica", key, got, want)
		}
	}

	// Stronger check: per key, every recorded event must name the same
	// serving replica — the assignment's owner — regardless of which proxy
	// replica relayed the call.
	byKey := map[string]uint64{}
	for _, ev := range testpkg.StoreEvents() {
		if first, ok := byKey[ev.Key]; !ok {
			byKey[ev.Key] = ev.Replica
		} else if first != ev.Replica {
			t.Fatalf("key %q served by replicas %d and %d; affinity broken for colocated callers", ev.Key, first, ev.Replica)
		}
	}
}

// TestMutualReferenceGroupsInitialize is the regression test for ROADMAP
// item 2 (mutual-init deadlock under static colocation). Two explicit
// groups reference each other: ns's Chain calls ew's Echo, and ew's
// Backref calls ns's Counter. With eager remote-conn setup each group's
// init blocked waiting for the other group's routing info before
// registering its own replica, so neither registered and both timed out
// after 30s. With lazy conn setup init completes immediately and the
// first calls wait (briefly) inside the data-plane conn instead.
func TestMutualReferenceGroupsInitialize(t *testing.T) {
	d := startDeployment(t, manager.Config{
		App: "test",
		Groups: map[string][]string{
			"ns": {"repro/internal/testpkg/Chain", "repro/internal/testpkg/Counter"},
			"ew": {"repro/internal/testpkg/Echo", "repro/internal/testpkg/Backref"},
		},
	})
	// Well under the old 30s init timeout: the deadlock, if reintroduced,
	// fails this deadline instead of hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()

	chain, err := Get[testpkg.Chain](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := chain.Relay(ctx, "m", 2); err != nil || got != "m.." {
		t.Fatalf("Relay = %q, %v", got, err)
	}

	backref, err := Get[testpkg.Backref](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backref.Poke(ctx, "k"); err != nil {
		t.Fatalf("Poke: %v", err)
	}

	if elapsed := time.Since(start); elapsed > 25*time.Second {
		t.Fatalf("mutual-reference init took %v; deadlock likely reintroduced", elapsed)
	}
	if n := d.Manager.ReplicaCount("ns"); n == 0 {
		t.Error("ns group has no replicas")
	}
	if n := d.Manager.ReplicaCount("ew"); n == 0 {
		t.Error("ew group has no replicas")
	}
}
