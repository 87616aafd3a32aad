package rollout

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/deploy"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/routing"
	"repro/internal/testpkg"
	"repro/weaver"
)

func fill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	return weaver.FillComponent(impl, name, logger, resolve, nil)
}

// TestLiveBlueGreenRollout drives the Director against two complete,
// independently running deployments — the real mechanics of an atomic
// rollout (§4.4): a full "green" fleet starts beside "blue", traffic
// shifts by key, every request is served entirely by one fleet, and a
// rollback (Abort) is a pure routing change.
func TestLiveBlueGreenRollout(t *testing.T) {
	ctx := context.Background()

	start := func(version string) (*deploy.InProcess, testpkg.Echo) {
		d, err := deploy.StartInProcess(ctx, deploy.Options{
			Config: manager.Config{App: "live-" + version},
			Fill:   fill,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		echoClient, err := deploy.Get[testpkg.Echo](ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		return d, echoClient
	}

	_, blueEcho := start("v1")
	_, greenEcho := start("v2")

	dir := NewDirector("v1")
	dir.Begin("v2")

	// serve sends one request through the fleet the director picks,
	// verifying the response and recording which version served it.
	served := map[Version]int{}
	keyVersion := map[string]Version{}
	serve := func(user string, weightStep int) {
		v := dir.Pick(routing.KeyHash(user))
		var echoClient testpkg.Echo
		if v == "v2" {
			echoClient = greenEcho
		} else {
			echoClient = blueEcho
		}
		msg := fmt.Sprintf("%s@%d", user, weightStep)
		got, err := echoClient.Echo(ctx, msg)
		if err != nil {
			t.Fatalf("echo on %s: %v", v, err)
		}
		if got != msg {
			t.Fatalf("corrupted response: %q", got)
		}
		served[v]++
		// A user pinned to v2 must never fall back to v1 as weight grows.
		if prev, ok := keyVersion[user]; ok && prev == "v2" && v == "v1" {
			t.Fatalf("user %s regressed from v2 to v1", user)
		}
		keyVersion[user] = v
	}

	users := make([]string, 40)
	for i := range users {
		users[i] = fmt.Sprintf("user-%d", i)
	}

	for step := 0; step <= 10; step++ {
		dir.SetWeight(float64(step) / 10)
		for _, u := range users {
			serve(u, step)
		}
	}
	if served["v1"] == 0 || served["v2"] == 0 {
		t.Fatalf("traffic did not split during rollout: %v", served)
	}

	// Finish: all traffic on v2.
	dir.Finish()
	for _, u := range users {
		if v := dir.Pick(routing.KeyHash(u)); v != "v2" {
			t.Fatalf("user %s on %s after Finish", u, v)
		}
	}

	// A second rollout aborts: all traffic returns to the incumbent (v2).
	dir.Begin("v3")
	dir.SetWeight(0.5)
	dir.Abort()
	for _, u := range users {
		if v := dir.Pick(routing.KeyHash(u)); v != "v2" {
			t.Fatalf("user %s on %s after Abort", u, v)
		}
	}
}
