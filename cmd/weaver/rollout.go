package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deploy"
	"repro/internal/envelope"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/rollout"
	"repro/internal/routing"
)

// rolloutRun implements "weaver rollout run": an atomic blue/green rollout
// between two application binaries (paper §4.4). Both versions run as
// complete, isolated deployments — their components never communicate
// across versions — while a front proxy shifts traffic gradually from old
// to new, pinning each user to one version. When the shift completes, the
// old deployment is torn down.
//
//	weaver rollout run -listener boutique -listen 127.0.0.1:8080 \
//	    -steps 5 -step 3s <old-binary> <new-binary>
func rolloutRun(args []string) {
	fs := flag.NewFlagSet("rollout run", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "front-door address served across the rollout")
	listenerName := fs.String("listener", "boutique", "weaver.Listener name the app serves HTTP on")
	steps := fs.Int("steps", 5, "number of traffic-shift steps")
	stepDur := fs.Duration("step", 3*time.Second, "duration of each traffic-shift step")
	maxReplicas := fs.Int("max", 4, "autoscaler max replicas per group")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: weaver rollout run [flags] <old-binary> <new-binary>")
		os.Exit(2)
	}
	oldBin, newBin := fs.Arg(0), fs.Arg(1)
	logger := logging.New(logging.Options{Component: "rollout", Min: logging.LevelInfo})

	// Each version gets its own HTTP port behind the proxy.
	oldHTTP := "127.0.0.1:19201"
	newHTTP := "127.0.0.1:19202"

	oldMgr, err := deployVersion(oldBin, "v1", *listenerName, oldHTTP, *maxReplicas, logger)
	if err != nil {
		fatal(err)
	}
	defer oldMgr.Stop()
	if err := waitHTTP(oldHTTP, 30*time.Second); err != nil {
		fatal(fmt.Errorf("old version never became healthy: %w", err))
	}
	logger.Info("old version serving", "binary", oldBin, "addr", oldHTTP)

	// The proxy starts with 100% of traffic on the old version.
	director := rollout.NewDirector("old")
	proxy := newVersionProxy(director, map[rollout.Version]string{"old": oldHTTP, "new": newHTTP})
	go func() {
		if err := http.ListenAndServe(*listen, proxy); err != nil {
			fatal(err)
		}
	}()
	logger.Info("front door serving", "addr", *listen)

	// Bring up the new version as a full fleet (blue/green capacity cost),
	// then shift.
	newMgr, err := deployVersion(newBin, "v2", *listenerName, newHTTP, *maxReplicas, logger)
	if err != nil {
		fatal(err)
	}
	defer newMgr.Stop()
	if err := waitHTTP(newHTTP, 30*time.Second); err != nil {
		fatal(fmt.Errorf("new version never became healthy: %w", err))
	}
	logger.Info("new version serving", "binary", newBin, "addr", newHTTP)

	// The shift schedule is a pure rollout.Plan; this loop only actuates it.
	plan := rollout.Plan{Steps: *steps, Step: *stepDur}
	director.Begin("new")
	for elapsed := time.Duration(0); !plan.Done(elapsed); elapsed += plan.Step {
		w := plan.WeightAt(elapsed)
		director.SetWeight(w)
		logger.Info("traffic shifted", "newVersionWeight", fmt.Sprintf("%.0f%%", w*100))
		time.Sleep(plan.Step)
	}
	director.Finish()
	logger.Info("rollout complete; stopping old version")
	oldMgr.Stop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
}

// deployVersion stands up one complete deployment of a binary.
func deployVersion(binary, version, listenerName, httpAddr string, maxReplicas int, logger *logging.Logger) (*manager.Manager, error) {
	inventory, err := deploy.DescribeBinary(binary)
	if err != nil {
		return nil, err
	}
	mgr, _, err := startDeployment(manager.Config{
		Components: inventory,
		DefaultAutoscale: autoscale.Config{
			MinReplicas: 1, MaxReplicas: maxReplicas,
			TargetLoadPerReplica: 200, ScaleDownDelay: 30 * time.Second,
		},
		Logger: logger.With("manager-" + version),
	}, envelope.SpawnOptions{
		Binary:  binary,
		Version: version,
		Env:     []string{"WEAVER_LISTEN_" + strings.ToUpper(listenerName) + "=" + httpAddr},
	})
	return mgr, err
}

// newVersionProxy builds the traffic-shifting reverse proxy. Requests are
// pinned to a version by user identity (the "user" query parameter when
// present, else the client address), so a session never straddles versions.
func newVersionProxy(director *rollout.Director, backends map[rollout.Version]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("user")
		if key == "" {
			key = r.RemoteAddr[:strings.LastIndexByte(r.RemoteAddr, ':')]
		}
		v := director.Pick(routing.KeyHash(key))
		backend, ok := backends[v]
		if !ok {
			http.Error(w, "no backend for version "+string(v), http.StatusBadGateway)
			return
		}
		target := &url.URL{Scheme: "http", Host: backend}
		proxy := httputil.NewSingleHostReverseProxy(target)
		w.Header().Set("X-Weaver-Version", string(v))
		proxy.ServeHTTP(w, r)
	})
}

// waitHTTP polls an address until an HTTP server answers.
func waitHTTP(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("unexpected status")
			}
			return err
		}
		time.Sleep(200 * time.Millisecond)
	}
}
