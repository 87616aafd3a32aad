// Weaver is the deployer CLI (paper Figure 3). Its "multi run" subcommand
// deploys an application binary across multiple OS processes on the local
// machine: a global manager in this process, one envelope + subprocess per
// component-group replica, proclets inside the subprocesses, and direct
// proclet-to-proclet TCP for the data plane.
//
// Usage:
//
//	weaver multi run <binary> [arg...]   deploy multiprocess
//	  -colocate "A,B;C,D"   colocation groups (component short names)
//	  -main "A,B"           components hosted in the driver process
//	  -version v1           rollout version label
//	  -target N             autoscaler target calls/sec per replica
//	  -max N                autoscaler max replicas per group
//	  -max-inflight N       per-replica admission limit (0 = unlimited)
//	  -max-queue N          admission wait-queue depth beyond -max-inflight
//	  -status N             print a status report every N seconds
//	  -graph                print the component call graph (dot) at exit
//	  -dashboard addr       serve the web dashboard (status/graph/metrics/
//	                        traces/logs) on addr
//	weaver rollout run <old> <new>       atomic blue/green rollout between
//	                                     two binaries behind a traffic-
//	                                     shifting front proxy (§4.4)
//	weaver describe <binary>             print the binary's components
//	weaver generate <dir> [dir...]       run the code generator
//
// The application binary is unmodified: the same executable runs as every
// replica of every group, discovering its role from the environment the
// envelope sets up.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/deploy"
	"repro/internal/envelope"
	"repro/internal/generate"
	"repro/internal/logging"
	"repro/internal/manager"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "multi":
		if len(os.Args) < 3 || os.Args[2] != "run" {
			usage()
		}
		multiRun(os.Args[3:])
	case "rollout":
		if len(os.Args) < 3 || os.Args[2] != "run" {
			usage()
		}
		rolloutRun(os.Args[3:])
	case "describe":
		if len(os.Args) != 3 {
			usage()
		}
		inventory, err := deploy.DescribeBinary(os.Args[2])
		if err != nil {
			fatal(err)
		}
		for _, c := range inventory {
			fmt.Printf("%s routed=%t\n", c.Name, c.Routed)
		}
	case "generate":
		for _, dir := range os.Args[2:] {
			path, err := generate.GenerateToFile(generate.Options{Dir: dir})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  weaver multi run [flags] <binary> [arg...]
  weaver rollout run [flags] <old-binary> <new-binary>
  weaver describe <binary>
  weaver generate <dir> [dir...]
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "weaver: %v\n", err)
	os.Exit(1)
}

// resolveComponents maps component short names to full names.
func resolveComponents(inventory []manager.ComponentInfo, names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		var match string
		for _, c := range inventory {
			if c.Name == n || core.ShortName(c.Name) == n {
				if match != "" {
					return nil, fmt.Errorf("component name %q is ambiguous", n)
				}
				match = c.Name
			}
		}
		if match == "" {
			return nil, fmt.Errorf("unknown component %q", n)
		}
		out = append(out, match)
	}
	return out, nil
}

func multiRun(args []string) {
	fs := flag.NewFlagSet("multi run", flag.ExitOnError)
	colocate := fs.String("colocate", "", `colocation groups, e.g. "Cart,Catalog;Checkout"`)
	mainComps := fs.String("main", "", "components hosted in the driver process")
	version := fs.String("version", "v1", "rollout version label")
	target := fs.Float64("target", 200, "autoscaler target calls/sec per replica")
	maxReplicas := fs.Int("max", 8, "autoscaler max replicas per group")
	statusEvery := fs.Int("status", 0, "print status every N seconds (0 = off)")
	dumpGraph := fs.Bool("graph", false, "print the component call graph (dot) at exit")
	dashAddr := fs.String("dashboard", "", `serve the deployment dashboard on this address (e.g. "127.0.0.1:8900")`)
	maxInflight := fs.Int("max-inflight", 0, "per-replica data-plane admission limit (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "per-replica admission wait-queue depth beyond -max-inflight")
	replaceEvery := fs.Duration("replace", 0, "live re-placement planning interval (0 = off), e.g. 10s")
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		usage()
	}
	binary := fs.Arg(0)
	binArgs := fs.Args()[1:]

	inventory, err := deploy.DescribeBinary(binary)
	if err != nil {
		fatal(err)
	}

	groups := map[string][]string{}
	if *colocate != "" {
		for i, spec := range strings.Split(*colocate, ";") {
			comps, err := resolveComponents(inventory, strings.Split(spec, ","))
			if err != nil {
				fatal(err)
			}
			if len(comps) == 0 {
				continue
			}
			groups[fmt.Sprintf("group%d", i+1)] = comps
		}
	}
	if *mainComps != "" {
		comps, err := resolveComponents(inventory, strings.Split(*mainComps, ","))
		if err != nil {
			fatal(err)
		}
		groups["main"] = comps
	}

	logger := logging.New(logging.Options{Component: "deployer", Min: logging.LevelInfo})
	cfg := manager.Config{
		Components: inventory,
		Groups:     groups,
		DefaultAutoscale: autoscale.Config{
			MinReplicas:          1,
			MaxReplicas:          *maxReplicas,
			TargetLoadPerReplica: *target,
			ScaleDownDelay:       30 * time.Second,
		},
		MaxInflightPerReplica: *maxInflight,
		MaxOverloadQueue:      *maxQueue,
		PlacementInterval:     *replaceEvery,
		Logger:                logger,
	}

	// Admission limits reach subprocess proclets through the environment
	// (the in-process deployer passes them through proclet.Options).
	var limitEnv []string
	if cfg.MaxInflightPerReplica > 0 {
		limitEnv = append(limitEnv, fmt.Sprintf("WEAVER_MAX_INFLIGHT=%d", cfg.MaxInflightPerReplica))
	}
	if cfg.MaxOverloadQueue > 0 {
		limitEnv = append(limitEnv, fmt.Sprintf("WEAVER_MAX_QUEUE=%d", cfg.MaxOverloadQueue))
	}

	// The driver replica is the subprocess in which the application's main
	// function actually runs.
	mgr, mainEnv, err := startDeployment(cfg, envelope.SpawnOptions{
		Binary:  binary,
		Args:    binArgs,
		Version: *version,
		Env:     limitEnv,
	})
	if err != nil {
		fatal(err)
	}
	if *dashAddr != "" {
		addr, err := dashboard.Serve(mgr, *dashAddr)
		if err != nil {
			mgr.Stop()
			fatal(err)
		}
		logger.Info("dashboard serving", "addr", "http://"+addr)
	}
	logger.Info("deployment started", "binary", binary, "version", *version)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var statusTick <-chan time.Time
	if *statusEvery > 0 {
		t := time.NewTicker(time.Duration(*statusEvery) * time.Second)
		defer t.Stop()
		statusTick = t.C
	}

loop:
	for {
		select {
		case <-mainEnv.Done():
			logger.Info("driver exited; shutting down deployment")
			break loop
		case s := <-sig:
			logger.Info("signal received; shutting down", "signal", s.String())
			break loop
		case <-statusTick:
			printStatus(mgr)
		}
	}

	if *dumpGraph {
		fmt.Println(mgr.Graph().Analyze().Dot())
	}
	mgr.Stop()
}

// startDeployment starts a subprocess deployment of spawn.Binary: a
// manager built from cfg whose starter spawns each replica as an
// envelope-supervised subprocess with spawn's arguments, version and
// environment, then the driver replica main/0. It sets cfg's App and
// Version from spawn.
func startDeployment(cfg manager.Config, spawn envelope.SpawnOptions) (*manager.Manager, *envelope.Envelope, error) {
	cfg.App, cfg.Version = spawn.Binary, spawn.Version
	mgr, err := manager.New(cfg, func(ctx context.Context, group, id string, mgr envelope.Manager) (*envelope.Envelope, error) {
		replica := spawn
		replica.ID, replica.Group = id, group
		return envelope.Spawn(ctx, replica, mgr)
	})
	if err != nil {
		return nil, nil, err
	}
	spawn.ID, spawn.Group = "main/0", "main"
	driver, err := envelope.Spawn(context.Background(), spawn, mgr)
	if err != nil {
		mgr.Stop()
		return nil, nil, err
	}
	return mgr, driver, nil
}

func printStatus(mgr *manager.Manager) {
	fmt.Println("=== deployment status ===")
	for _, g := range mgr.Status() {
		shorts := make([]string, len(g.Components))
		for i, c := range g.Components {
			shorts[i] = core.ShortName(c)
		}
		sort.Strings(shorts)
		fmt.Printf("group %-16s components=[%s]\n", g.Name, strings.Join(shorts, ","))
		for _, r := range g.Replicas {
			health := "healthy"
			if !r.Healthy {
				health = "UNHEALTHY"
			}
			fmt.Printf("  %-14s pid=%-7d addr=%-21s %-9s %.1f calls/s\n", r.ID, r.Pid, r.Addr, health, r.Rate)
		}
	}
}
