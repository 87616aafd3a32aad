// Evaluate regenerates the paper's evaluation (§6.1) — Table 2, the
// co-location result, and the headline latency/cost ratios — plus the
// supporting experiments indexed in DESIGN.md and EXPERIMENTS.md.
//
// Experiments:
//
//	table2-sim    Table 2 at the paper's 10,000 QPS on the simulated cloud
//	              (cores + median latency for baseline, prototype, and
//	              co-located deployments).
//	table2-local  The same comparison measured for real on this machine:
//	              three deployments of the actual boutique binaries at a
//	              laptop-scale request rate, with CPU consumption read
//	              from /proc.
//	rollout       Cross-version update failures: rolling vs atomic
//	              blue/green rollouts (§4.4, §5.3).
//	placement     Call-graph-driven co-location planning (§5.1): collect
//	              the real boutique call graph, plan groups, and compare
//	              the plan's simulated cost against no co-location.
//	all           Everything above.
//
// Usage:
//
//	go run ./cmd/evaluate -experiment all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/boutique"
	"repro/internal/callgraph"
	"repro/internal/deploy"
	"repro/internal/envelope"
	"repro/internal/loadgen"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/placement"
	"repro/internal/rollout"
	"repro/internal/simcloud"
	"repro/weaver"
)

func main() {
	experiment := flag.String("experiment", "all", "table2-sim | table2-local | rollout | placement | all")
	rate := flag.Float64("rate", 300, "request rate for local measurements (requests/sec)")
	duration := flag.Duration("duration", 15*time.Second, "measured load duration for local experiments")
	simQPS := flag.Float64("simqps", 10000, "request rate for the simulated Table 2")
	bindir := flag.String("bindir", "", "directory for built binaries (default: temp dir)")
	flag.Parse()

	switch *experiment {
	case "table2-sim":
		table2Sim(*simQPS)
	case "table2-local":
		table2Local(*rate, *duration, *bindir)
	case "rollout":
		rolloutExperiment()
	case "placement":
		placementExperiment()
	case "all":
		table2Sim(*simQPS)
		table2Local(*rate, *duration, *bindir)
		rolloutExperiment()
		placementExperiment()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// --- Experiment T2 (simulated, paper scale) ---

func table2Sim(qps float64) {
	fmt.Printf("=== Table 2 (simulated cloud, %.0f QPS — paper reports 10000 QPS) ===\n", qps)
	fmt.Printf("%-22s %8s %12s %14s\n", "deployment", "QPS", "avg cores", "median lat")

	type mode struct {
		name   string
		costs  simcloud.CostModel
		groups map[string]string
	}
	modes := []mode{
		{"baseline (status quo)", simcloud.BaselineCosts, nil},
		{"prototype (weaver)", simcloud.WeaverCosts, nil},
		{"prototype co-located", simcloud.WeaverCosts, simcloud.ColocateAll()},
	}
	results := map[string]simcloud.BoutiqueResult{}
	for _, m := range modes {
		r := simcloud.RunBoutique(simcloud.BoutiqueOptions{
			QPS: qps, Costs: m.costs, Groups: m.groups, Seed: 1,
			WarmupSeconds: 120, MeasureSeconds: 60,
		})
		results[m.name] = r
		fmt.Printf("%-22s %8.0f %12.1f %11.2f ms\n", m.name, r.CompletedQPS, r.TotalCores, r.MedianLatency*1e3)
	}
	b, w, c := results[modes[0].name], results[modes[1].name], results[modes[2].name]
	fmt.Printf("\nheadline ratios (paper: cost up to 9x, latency up to 15x):\n")
	fmt.Printf("  cost:    baseline/prototype = %.1fx   baseline/co-located = %.1fx\n",
		b.TotalCores/w.TotalCores, b.TotalCores/c.TotalCores)
	fmt.Printf("  latency: baseline/prototype = %.1fx   baseline/co-located = %.1fx\n\n",
		b.MedianLatency/w.MedianLatency, b.MedianLatency/c.MedianLatency)
}

// --- Experiment T2 (measured locally) ---

// cpuSeconds reads a process's cumulative user+system CPU time from
// /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized comm; utime and stime are fields 14
	// and 15 (1-indexed from the start).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(fields[11], 64) // field 14 overall
	stime, _ := strconv.ParseFloat(fields[12], 64) // field 15
	const clkTck = 100                             // Linux USER_HZ
	return (utime + stime) / clkTck
}

func buildBinaries(bindir string) (boutiqueBin, baselineBin string, err error) {
	if bindir == "" {
		bindir, err = os.MkdirTemp("", "weaver-eval")
		if err != nil {
			return "", "", err
		}
	}
	boutiqueBin = filepath.Join(bindir, "boutique")
	baselineBin = filepath.Join(bindir, "boutique-baseline")
	for target, pkg := range map[string]string{
		boutiqueBin: "./examples/boutique",
		baselineBin: "./cmd/boutique-baseline",
	} {
		cmd := exec.Command("go", "build", "-o", target, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("building %s: %w", pkg, err)
		}
	}
	return boutiqueBin, baselineBin, nil
}

type localResult struct {
	name   string
	report *loadgen.Report
	cores  float64
}

func table2Local(rate float64, duration time.Duration, bindir string) {
	fmt.Printf("=== Table 2 (measured on this machine, %.0f QPS for %v) ===\n", rate, duration)
	boutiqueBin, baselineBin, err := buildBinaries(bindir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}

	var results []localResult
	if r, err := measureBaseline(baselineBin, rate, duration); err != nil {
		fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
	} else {
		results = append(results, r)
	}
	if r, err := measureWeaverMulti(boutiqueBin, rate, duration); err != nil {
		fmt.Fprintf(os.Stderr, "weaver multi: %v\n", err)
	} else {
		results = append(results, r)
	}
	if r, err := measureColocated(boutiqueBin, rate, duration); err != nil {
		fmt.Fprintf(os.Stderr, "colocated: %v\n", err)
	} else {
		results = append(results, r)
	}

	fmt.Printf("%-22s %8s %12s %12s %12s %8s\n", "deployment", "QPS", "avg cores", "median lat", "p99 lat", "errors")
	for _, r := range results {
		fmt.Printf("%-22s %8.0f %12.2f %9.2f ms %9.2f ms %8d\n",
			r.name, r.report.Achieved, r.cores,
			float64(r.report.Quantile(0.5).Microseconds())/1e3,
			float64(r.report.Quantile(0.99).Microseconds())/1e3,
			r.report.Errors)
	}
	if len(results) == 3 {
		fmt.Printf("\nheadline ratios:\n")
		fmt.Printf("  cost:    baseline/prototype = %.1fx   baseline/co-located = %.1fx\n",
			results[0].cores/results[1].cores, results[0].cores/results[2].cores)
		fmt.Printf("  latency: baseline/prototype = %.1fx   baseline/co-located = %.1fx\n\n",
			float64(results[0].report.Quantile(0.5))/float64(results[1].report.Quantile(0.5)),
			float64(results[0].report.Quantile(0.5))/float64(results[2].report.Quantile(0.5)))
	}
}

// waitHealthy polls the storefront until it responds.
func waitHealthy(base string, timeout time.Duration) error {
	target := loadgen.NewHTTPTarget(base)
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := target.Do(ctx, loadgen.OpIndex, "health", "USD", "OLJCESPC7Z")
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("storefront never became healthy: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runLoadMeasured warms the deployment, then measures latency and the CPU
// consumed by the given pids.
func runLoadMeasured(base string, rate float64, duration time.Duration, pids func() []int) (*loadgen.Report, float64, error) {
	if err := waitHealthy(base, 20*time.Second); err != nil {
		return nil, 0, err
	}
	target := loadgen.NewHTTPTarget(base)
	ctx := context.Background()
	// Warmup.
	loadgen.Run(ctx, target, loadgen.Options{Rate: rate, Duration: 3 * time.Second, Seed: 7})

	before := map[int]float64{}
	for _, pid := range pids() {
		before[pid] = cpuSeconds(pid)
	}
	start := time.Now()
	report := loadgen.Run(ctx, target, loadgen.Options{Rate: rate, Duration: duration, Seed: 42})
	elapsed := time.Since(start).Seconds()

	var cpu float64
	for _, pid := range pids() {
		delta := cpuSeconds(pid) - before[pid]
		if delta > 0 {
			cpu += delta
		}
	}
	return report, cpu / elapsed, nil
}

var baselineServices = []string{
	"AdService", "Cart", "Checkout", "Currency", "Email",
	"Frontend", "Payment", "ProductCatalog", "Recommendation", "Shipping",
}

func measureBaseline(baselineBin string, rate float64, duration time.Duration) (localResult, error) {
	const httpAddr = "127.0.0.1:19099"
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	for _, svc := range baselineServices {
		cmd := exec.Command(baselineBin, "-service", svc, "-baseport", "19100", "-httpaddr", httpAddr)
		cmd.Stderr = nil
		if err := cmd.Start(); err != nil {
			return localResult{}, err
		}
		procs = append(procs, cmd)
	}
	pids := func() []int {
		var out []int
		for _, p := range procs {
			out = append(out, p.Process.Pid)
		}
		return out
	}
	report, cores, err := runLoadMeasured("http://"+httpAddr, rate, duration, pids)
	if err != nil {
		return localResult{}, err
	}
	return localResult{name: "baseline (status quo)", report: report, cores: cores}, nil
}

func measureWeaverMulti(boutiqueBin string, rate float64, duration time.Duration) (localResult, error) {
	const httpAddr = "127.0.0.1:19098"
	inventory, err := deploy.DescribeBinary(boutiqueBin)
	if err != nil {
		return localResult{}, err
	}
	logger := logging.New(logging.Options{Component: "evaluate", Min: logging.LevelError})
	mgr, _, err := deploy.StartSubprocess(manager.Config{
		Components:       inventory,
		DefaultAutoscale: autoscale.Config{MinReplicas: 1, MaxReplicas: 1},
		Logger:           logger,
	}, envelope.SpawnOptions{
		Binary: boutiqueBin,
		Env:    []string{"WEAVER_LISTEN_BOUTIQUE=" + httpAddr},
	})
	if err != nil {
		return localResult{}, err
	}
	defer mgr.Stop()

	pids := func() []int {
		var out []int
		for _, g := range mgr.Status() {
			for _, r := range g.Replicas {
				if r.Pid > 0 {
					out = append(out, r.Pid)
				}
			}
		}
		return out
	}
	report, cores, err := runLoadMeasured("http://"+httpAddr, rate, duration, pids)
	if err != nil {
		return localResult{}, err
	}
	return localResult{name: "prototype (weaver)", report: report, cores: cores}, nil
}

func measureColocated(boutiqueBin string, rate float64, duration time.Duration) (localResult, error) {
	const httpAddr = "127.0.0.1:19097"
	cmd := exec.Command(boutiqueBin)
	cmd.Env = append(os.Environ(), "WEAVER_LISTEN_BOUTIQUE="+httpAddr)
	if err := cmd.Start(); err != nil {
		return localResult{}, err
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	pids := func() []int { return []int{cmd.Process.Pid} }
	report, cores, err := runLoadMeasured("http://"+httpAddr, rate, duration, pids)
	if err != nil {
		return localResult{}, err
	}
	return localResult{name: "prototype co-located", report: report, cores: cores}, nil
}

// --- Experiment A5: rollouts ---

func rolloutExperiment() {
	fmt.Printf("=== Cross-version update failures (rolling vs atomic; §4.4/§5.3) ===\n")
	fmt.Printf("%-22s %10s %14s %10s %12s %10s\n", "policy", "requests", "cross-version", "failed", "failure rate", "peak fleet")
	for _, p := range []rollout.Policy{rollout.RollingUnversioned, rollout.RollingTagged, rollout.AtomicUnversioned} {
		r := rollout.Run(p, rollout.Config{Replicas: 10, RequestsPerStep: 2000, Seed: 7})
		fmt.Printf("%-22s %10d %14d %10d %11.2f%% %10d\n",
			r.Policy, r.Total, r.CrossVersion, r.Failed, r.FailureRate*100, r.PeakFleet)
	}
	fmt.Println()
}

// --- Experiment A6: placement ---

func placementExperiment() {
	fmt.Printf("=== Call-graph-driven co-location (§5.1) ===\n")
	// Collect the real call graph by driving the single-process boutique.
	ctx := context.Background()
	app, err := weaver.Init(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		return
	}
	defer app.Shutdown(ctx)
	fe, err := weaver.Get[boutique.Frontend](app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		return
	}
	loadgen.Run(ctx, &loadgen.ComponentTarget{Frontend: fe}, loadgen.Options{Rate: 400, Duration: 3 * time.Second, Seed: 11})

	graph := app.CallGraph().Analyze()
	fmt.Println("chattiest component pairs:")
	for i, p := range graph.ChattyPairs() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-18s <-> %-18s %7d calls\n", shortName(p.A), shortName(p.B), p.Calls)
	}

	ev := placement.Evaluate(graph, placement.Config{MaxGroupSize: 4})
	fmt.Println("planned groups (cap 4 components/group):")
	groups := map[string]string{}
	for name, comps := range ev.Plan {
		var shorts []string
		for _, c := range comps {
			shorts = append(shorts, shortName(c))
			groups[shortName(c)] = name
		}
		fmt.Printf("  %-4s [%s]\n", name, strings.Join(shorts, ", "))
	}
	fmt.Printf("plan locality score: %.0f%% of calls become local\n", 100*ev.Score)

	// Compare simulated cost: no colocation vs the planned grouping.
	none := simcloud.RunBoutique(simcloud.BoutiqueOptions{QPS: 2000, Costs: simcloud.WeaverCosts, Seed: 5, WarmupSeconds: 60, MeasureSeconds: 40})
	planned := simcloud.RunBoutique(simcloud.BoutiqueOptions{QPS: 2000, Costs: simcloud.WeaverCosts, Groups: groups, Seed: 5, WarmupSeconds: 60, MeasureSeconds: 40})
	fmt.Printf("simulated at 2000 QPS: no-colocation %.1f cores / %.2f ms p50; planned %.1f cores / %.2f ms p50\n\n",
		none.TotalCores, none.MedianLatency*1e3, planned.TotalCores, planned.MedianLatency*1e3)
}

func shortName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

var _ = callgraph.Edge{}
