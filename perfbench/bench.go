package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/boutique"
	"repro/internal/deploy"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/weaver"
)

const (
	// setupRuns is how many deployments a run starts; setup_s is their
	// median, and the last one serves the load.
	setupRuns = 15
	// warmup runs the load before the window, so pools, caches and lazy
	// set-up are filled before timing.
	warmup = 2 * time.Second
	// subWindowLen is the target length of the equal parts the window is
	// split into; endToEnd reads each figure per part.
	subWindowLen = time.Second
	// idleWindow is the quiet time over which proclet.idle_cpu_frac is
	// measured.
	idleWindow = time.Second
	// setupDeadline bounds the wait for each first op of a deployment.
	setupDeadline = 60 * time.Second
)

type bench struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	dir     string
	epoch   time.Time // span time zero

	dep         *deploy.InProcess
	storeDir    string
	setupCaller *caller // the kept deployment's set-up ops

	setupS    []float64
	startMs   []float64
	firstOpMs [numOpKinds][]float64
	idleFrac  float64

	callers []*caller
	win     *window
	samples []procCounters // at the sub-window boundaries

	attempted, failed int
	problems          []string
	layers            map[string]float64
	probeSpans        []span
}

func fill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	listen := func(string) (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	return weaver.FillComponent(impl, name, logger, resolve, listen)
}

// start boots one deployment of the workload's shape.
func (b *bench) start(ctx context.Context, storeDir string) (*deploy.InProcess, error) {
	if b.w.persistCart {
		if err := os.Setenv("CART_STORE_DIR", storeDir); err != nil {
			return nil, err
		}
	} else if err := os.Unsetenv("CART_STORE_DIR"); err != nil {
		return nil, err
	}
	cfg := manager.Config{
		App:              "perfbench",
		DefaultAutoscale: autoscale.Config{MinReplicas: 1, MaxReplicas: 1},
		Logger:           logging.New(logging.Options{Component: "manager", Min: logging.LevelError}),
	}
	if b.w.colocated {
		var all []string
		for _, c := range deploy.Inventory() {
			all = append(all, c.Name)
		}
		cfg.Groups = map[string][]string{"app": all}
	}
	return deploy.StartInProcess(ctx, deploy.Options{Config: cfg, Fill: fill})
}

// setup starts a deployment and runs one op of every kind, timing the
// start and each first op; setup_s is the time until all have succeeded.
// The deployment is kept when keep is set and stopped otherwise.
func (b *bench) setup(ctx context.Context, i int, keep bool) error {
	storeDir := filepath.Join(b.dir, fmt.Sprintf("cart-store-%d", i))
	t0 := time.Now()
	d, err := b.start(ctx, storeDir)
	if err != nil {
		return fmt.Errorf("starting deployment: %w", err)
	}
	started := time.Now()
	fe, err := deploy.Get[boutique.Frontend](ctx, d)
	if err != nil {
		d.Stop()
		return fmt.Errorf("frontend client: %w", err)
	}
	c := newCaller(-1, fe, 0, nil, b.epoch)
	var firstOp [numOpKinds]time.Duration
	product := catalog[0].id
	for _, o := range []op{
		{kind: opIndex, user: "setup", currency: "USD"},
		{kind: opSetCurrency, user: "setup", currency: "EUR"},
		{kind: opBrowse, user: "setup", currency: "EUR", product: product},
		{kind: opAddToCart, user: "setup", product: product, qty: 1},
		{kind: opViewCart, user: "setup", currency: "EUR"},
		{kind: opCheckout, user: "setup", currency: "EUR"},
	} {
		opStart := time.Now()
		for {
			_, _, err := c.exec(ctx, o)
			if err == nil {
				break
			}
			if time.Since(opStart) > setupDeadline {
				d.Stop()
				return fmt.Errorf("setup: %w", err)
			}
			// A retried op must not see state from the failed attempt.
			delete(c.tainted, o.user)
			fmt.Fprintln(os.Stderr, "perfbench: setup op failed, retrying:", err)
			time.Sleep(10 * time.Millisecond)
		}
		firstOp[o.kind] = time.Since(opStart)
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	b.startMs = append(b.startMs, float64(started.Sub(t0).Nanoseconds())/1e6)
	for k, d := range firstOp {
		b.firstOpMs[k] = append(b.firstOpMs[k], float64(d.Nanoseconds())/1e6)
	}
	if !keep {
		d.Stop()
		return nil
	}
	b.dep, b.storeDir, b.setupCaller = d, storeDir, c
	return nil
}

// phase runs every caller until end. With a window it also reads the
// process counters at each sub-window boundary.
func (b *bench) phase(ctx context.Context, end time.Time, w *window) {
	var wg sync.WaitGroup
	if w != nil {
		b.samples = append(b.samples[:0], readCounters())
		w.start = b.samples[0].at
	}
	for _, c := range b.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.run(ctx, end, w)
		}(c)
	}
	if w != nil {
		for k := 1; k < w.n; k++ {
			time.Sleep(time.Until(w.start.Add(time.Duration(k) * w.sub)))
			b.samples = append(b.samples, readCounters())
		}
	}
	wg.Wait()
	if w != nil {
		b.samples = append(b.samples, readCounters())
	}
}

func (b *bench) measure(ctx context.Context) error {
	b.epoch = time.Now()
	for i := 0; i < setupRuns; i++ {
		if err := b.setup(ctx, i, i == setupRuns-1); err != nil {
			return err
		}
	}
	defer b.dep.Stop()
	fe, err := deploy.Get[boutique.Frontend](ctx, b.dep)
	if err != nil {
		return err
	}
	if b.traced {
		a := readCounters()
		time.Sleep(idleWindow)
		z := readCounters()
		b.idleFrac = (z.cpu - a.cpu).Seconds() / z.at.Sub(a.at).Seconds()
	}
	for i := 0; i < b.w.callers; i++ {
		b.callers = append(b.callers, newCaller(i, fe, b.seed, b.w.mix, b.epoch))
	}

	b.phase(ctx, time.Now().Add(warmup), nil)
	if err := b.settle(); err != nil {
		return err
	}
	var before layerSnapshot
	if b.traced {
		before = b.snapshotLayers()
	}
	length := time.Duration(b.seconds) * time.Second
	n := max(2, int(length/subWindowLen))
	b.win = &window{n: n, sub: length / time.Duration(n), traced: b.traced, hists: make([]latHist, n)}
	b.phase(ctx, time.Now().Add(length), b.win)
	if err := b.settle(); err != nil {
		return err
	}
	for _, c := range b.callers {
		for k := range c.ops {
			b.attempted += c.ops[k]
			b.failed += c.failed[k]
		}
	}
	if b.traced {
		after := b.snapshotLayers()
		if err := b.measureLayers(ctx, before, after); err != nil {
			return err
		}
	}

	var wg sync.WaitGroup
	for _, c := range b.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.sweep(ctx)
		}(c)
	}
	wg.Wait()
	for _, c := range b.callers {
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: caller %d: %d failures in the window, %d outside; first: %v\n",
				c.idx, sum(c.failed), c.outsideErrs, c.firstErr)
		}
		if c.outsideErrs > 0 {
			b.problems = append(b.problems, fmt.Sprintf("caller %d: %d ops failed outside the window", c.idx, c.outsideErrs))
		}
	}
	return nil
}

// settle waits until every call of the load just stopped has reached the
// manager's call graph: proclets ship their edges with each load report.
func (b *bench) settle() error {
	const poll = 60 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	last, same := uint64(0), 0
	for same < 4 {
		if time.Now().After(deadline) {
			return fmt.Errorf("call graph did not settle")
		}
		time.Sleep(poll)
		var n uint64
		for _, e := range b.dep.Manager.Graph().Edges() {
			n += e.Calls
		}
		if n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return nil
}

// subWindow is the load in one sub-window of the measured window.
type subWindow struct {
	ops     int
	seconds float64
	cpu     time.Duration
	allocs  uint64
	p50     time.Duration
	p95     time.Duration
}

func (b *bench) subWindows() []subWindow {
	out := make([]subWindow, b.win.n)
	for k := range out {
		s := &out[k]
		for _, c := range b.callers {
			s.ops += c.ops[k]
		}
		s.p50, s.p95 = b.win.hists[k].quantile(0.50), b.win.hists[k].quantile(0.95)
		a, z := b.samples[k], b.samples[k+1]
		s.seconds = z.at.Sub(a.at).Seconds()
		s.cpu = z.cpu - a.cpu
		s.allocs = z.allocs - a.allocs
	}
	return out
}

// endToEnd computes the end-to-end metrics. Each timing and rate is the
// better quartile over the sub-windows: the 75th percentile of the
// sub-window rates, the 25th of the latencies and costs. Interference from
// outside the process (other tenants of the machine, CPU steal) only ever
// slows a sub-window, so the better quartile tracks the program while a
// quarter of the window stays quiet; a change that slows every sub-window
// still moves it.
func (b *bench) endToEnd() map[string]float64 {
	var rate, p50, p95, cpu, alloc []float64
	for _, s := range b.subWindows() {
		if s.ops == 0 {
			continue
		}
		rate = append(rate, float64(s.ops)/s.seconds)
		p50 = append(p50, us(s.p50))
		p95 = append(p95, us(s.p95))
		cpu = append(cpu, us(s.cpu)/float64(s.ops))
		alloc = append(alloc, float64(s.allocs)/1024/float64(s.ops))
	}
	return map[string]float64{
		"ops_per_s":       quantile(rate, 0.75),
		"op_p50_us":       quantile(p50, 0.25),
		"op_p95_us":       quantile(p95, 0.25),
		"cpu_us_per_op":   quantile(cpu, 0.25),
		"alloc_kb_per_op": quantile(alloc, 0.25),
		"setup_s":         median(b.setupS),
	}
}

// checkOrders reports order IDs that were issued twice. IDs are compared
// by their 64-bit hashes.
func (b *bench) checkOrders() []string {
	var all []uint64
	for _, c := range b.callers {
		all = append(all, c.orders...)
	}
	slices.Sort(all)
	var dup []string
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			dup = append(dup, fmt.Sprintf("an order id was issued twice (hash %016x)", all[i]))
		}
	}
	return dup
}

func (b *bench) allSpans() []span {
	out := append([]span(nil), b.probeSpans...)
	for _, c := range b.callers {
		out = append(out, c.spans...)
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
