// Package deploy provides deployer implementations that tie together the
// manager, envelopes, and proclets (paper Figure 3).
//
// InProcess runs a complete multiprocess-shaped deployment inside a single
// OS process: every "replica" is a goroutine-hosted proclet speaking the
// real control-plane pipe protocol to a real envelope, and component calls
// between groups cross real TCP sockets through the data plane. It exists
// for integration tests, chaos tests, and benchmarks, where spawning many
// OS processes would be slow and hard to instrument; the subprocess
// deployer (StartSubprocess, used by cmd/weaver and cmd/evaluate) shares
// every line of manager/envelope/proclet code with it.
package deploy

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/pipe"
	"repro/internal/proclet"
	"repro/internal/tracing"
)

// managerRef is an envelope.Manager that delegates to the current manager.
// Envelopes are attached to the ref, not to a manager, so a manager
// rebuild (RestartManager) repoints the whole fleet atomically.
type managerRef struct {
	p atomic.Pointer[manager.Manager]
}

func (r *managerRef) get() *manager.Manager { return r.p.Load() }

func (r *managerRef) RegisterReplica(e *envelope.Envelope, reg pipe.RegisterReplica) error {
	return r.get().RegisterReplica(e, reg)
}
func (r *managerRef) ComponentsToHost(e *envelope.Envelope) (pipe.HostComponents, error) {
	return r.get().ComponentsToHost(e)
}
func (r *managerRef) StartComponent(e *envelope.Envelope, component string, routed bool) error {
	return r.get().StartComponent(e, component, routed)
}
func (r *managerRef) LoadReport(e *envelope.Envelope, lr pipe.LoadReport) {
	r.get().LoadReport(e, lr)
}
func (r *managerRef) Logs(entries []logging.Entry)      { r.get().Logs(entries) }
func (r *managerRef) Traces(spans []tracing.Span)       { r.get().Traces(spans) }
func (r *managerRef) GraphEdges(edges []callgraph.Edge) { r.get().GraphEdges(edges) }
func (r *managerRef) ReplicaExited(e *envelope.Envelope, err error) {
	r.get().ReplicaExited(e, err)
}

// FillFunc injects weaver state into component implementations; it is
// weaver.FillComponent adapted by the caller (the public weaver package
// owns the field types, so the closure must come from above).
type FillFunc func(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error

// Inventory builds the component inventory from the in-process registry.
func Inventory() []manager.ComponentInfo {
	var out []manager.ComponentInfo
	for _, reg := range codegen.All() {
		out = append(out, manager.ComponentInfo{Name: reg.Name, Routed: reg.Routed})
	}
	return out
}

// DescribeBinary asks an application binary for its component inventory by
// running it with WEAVER_DESCRIBE=1: the code generator has registered every
// component by init time, so the binary prints one "name routed" line per
// component and exits.
func DescribeBinary(binary string) ([]manager.ComponentInfo, error) {
	cmd := exec.Command(binary)
	cmd.Env = append(os.Environ(), "WEAVER_DESCRIBE=1")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("describing %s: %w", binary, err)
	}
	var inventory []manager.ComponentInfo
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 {
			inventory = append(inventory, manager.ComponentInfo{Name: fields[0], Routed: fields[1] == "true"})
		}
	}
	if len(inventory) == 0 {
		return nil, fmt.Errorf("%s reports no components (did you run weavergen?)", binary)
	}
	return inventory, nil
}

// StartSubprocess starts a subprocess deployment of spawn.Binary: a
// manager built from cfg whose starter spawns each replica as an
// envelope-supervised subprocess with spawn's arguments and environment,
// then the driver replica main/0, whose envelope it returns.
func StartSubprocess(cfg manager.Config, spawn envelope.SpawnOptions) (*manager.Manager, *envelope.Envelope, error) {
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

// InProcess is a running in-process deployment.
type InProcess struct {
	Manager *manager.Manager
	main    *proclet.Proclet

	// ref is the envelope-facing manager indirection; cfg and starter are
	// retained so RestartManager can rebuild the manager from scratch.
	ref     *managerRef
	cfg     manager.Config
	starter manager.Starter

	mu       sync.Mutex
	proclets map[string]*proclet.Proclet
	// starting holds the replicas whose proclet.Start has not returned.
	// A proclet registers with the manager, and so serves calls, before
	// Start returns it; lookups wait on started until it is recorded.
	starting map[string]bool
	started  *sync.Cond
}

// Options configures an in-process deployment.
type Options struct {
	Config manager.Config
	Fill   FillFunc
	// TraceFraction is each proclet's trace sampling rate.
	TraceFraction float64
	// BypassAssignmentDispatch restores the historical (buggy) colocated
	// dispatch that ignored the affinity assignment. Testing-only: the sim
	// harness sets it to demonstrate rediscovering the bug from a seed.
	BypassAssignmentDispatch bool
}

// reportInterval is the proclets' load-report cadence: faster than the
// proclet default (500ms), so in-process deployments react quickly.
const reportInterval = 100 * time.Millisecond

// StartInProcess boots a deployment: a manager, a main driver proclet, and
// on-demand goroutine proclets for every other group.
func StartInProcess(ctx context.Context, opts Options) (*InProcess, error) {
	if opts.Fill == nil {
		return nil, fmt.Errorf("deploy: missing Fill")
	}
	if len(opts.Config.Components) == 0 {
		opts.Config.Components = Inventory()
	}

	d := &InProcess{proclets: map[string]*proclet.Proclet{}, starting: map[string]bool{}, ref: &managerRef{}}
	d.started = sync.NewCond(&d.mu)

	startProclet := func(ctx context.Context, group, id string, _ envelope.Manager) (*envelope.Envelope, *proclet.Proclet, error) {
		envConn, procConn, err := pipe.Pair()
		if err != nil {
			return nil, nil, err
		}
		// Envelopes talk to the manager through the ref, so a manager
		// rebuild repoints them without re-attaching.
		e := envelope.Attach(id, group, envConn, d.ref)
		d.mu.Lock()
		d.starting[id] = true
		d.mu.Unlock()
		p, err := proclet.Start(ctx, proclet.Options{
			Conn:           procConn,
			ProcletID:      id,
			Group:          group,
			Fill:           opts.Fill,
			ReportInterval: reportInterval,
			TraceFraction:  opts.TraceFraction,
			Logger:         logging.New(logging.Options{Component: "proclet", Replica: id, Min: logging.LevelWarn}),

			BypassAssignmentDispatch: opts.BypassAssignmentDispatch,
		})
		d.mu.Lock()
		delete(d.starting, id)
		if err == nil {
			d.proclets[id] = p
		}
		d.started.Broadcast()
		d.mu.Unlock()
		if err != nil {
			envConn.Close()
			procConn.Close()
			return nil, nil, err
		}
		return e, p, nil
	}

	starter := func(ctx context.Context, group, id string, mgr envelope.Manager) (*envelope.Envelope, error) {
		e, _, err := startProclet(ctx, group, id, mgr)
		return e, err
	}

	mgr, err := manager.New(opts.Config, starter)
	if err != nil {
		return nil, err
	}
	d.Manager = mgr
	d.ref.p.Store(mgr)
	d.cfg = opts.Config
	d.starter = starter

	// Start the main driver proclet directly, as a subprocess deployer
	// starts the main binary.
	_, mainP, err := startProclet(ctx, "main", "main/0", mgr)
	if err != nil {
		mgr.Stop()
		return nil, err
	}
	d.main = mainP
	return d, nil
}

// Runtime returns the main driver's component runtime; Get drives the
// application through it.
func (d *InProcess) Runtime() *core.Runtime { return d.main.Runtime() }

// Get returns a client for the component with interface type T, as seen
// from the main driver.
func Get[T any](ctx context.Context, d *InProcess) (T, error) {
	var zero T
	v, err := d.Runtime().Get(ctx, reflect.TypeOf((*T)(nil)).Elem())
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// RoutingReplicas reports how many replicas the main driver's data-plane
// conn currently holds for the named component. Tests that depend on a
// stable routing assignment should wait on this rather than (only) the
// manager's replica count: the manager learns of a replica before the
// routing push reaches the driver.
func (d *InProcess) RoutingReplicas(component string) int {
	return d.main.RoutingReplicas(component)
}

// RouteVersion reports the routing epoch and locality (true = direct
// in-process dispatch) of the main driver's installed route for a
// component (see core.Runtime.RouteVersion). Tests use it to assert that
// observed placement flips are monotonic.
func (d *InProcess) RouteVersion(component string) (version uint64, local bool) {
	return d.main.Runtime().RouteVersion(component)
}

// RoutingVersion reports the routing epoch the main driver has applied for
// a component's data-plane route (0 before the first routing push).
func (d *InProcess) RoutingVersion(component string) uint64 {
	return d.main.RoutingVersion(component)
}

// Proclet returns the proclet for a replica id, if it is running.
func (d *InProcess) Proclet(id string) (*proclet.Proclet, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.procletLocked(id)
}

// procletLocked returns the proclet for a replica id, waiting out its
// start if one is in progress. Caller holds d.mu.
func (d *InProcess) procletLocked(id string) (*proclet.Proclet, bool) {
	for d.starting[id] {
		d.started.Wait()
	}
	p, ok := d.proclets[id]
	return p, ok
}

// Proclets returns a snapshot of all live proclets by replica id
// (including the main driver). The sim harness iterates it to check that
// every process has applied the routing epoch it is waiting on.
func (d *InProcess) Proclets() map[string]*proclet.Proclet {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]*proclet.Proclet, len(d.proclets))
	for id, p := range d.proclets {
		out[id] = p
	}
	return out
}

// Groups returns the names of all non-main groups that currently have
// replicas, sorted — the default fault targets (part of the chaos/sim
// shared fault surface).
func (d *InProcess) Groups() []string {
	var out []string
	for _, g := range d.Manager.Status() {
		if g.Name != "main" && len(g.Replicas) > 0 {
			out = append(out, g.Name)
		}
	}
	return out
}

// GroupReplicas returns the replica ids of a group, sorted.
func (d *InProcess) GroupReplicas(group string) []string {
	var out []string
	for _, g := range d.Manager.Status() {
		if g.Name == group {
			for _, r := range g.Replicas {
				out = append(out, r.ID)
			}
		}
	}
	return out
}

// DegradeReplica injects delay into a replica's data plane (0 restores
// it), simulating a slow or flapping replica for chaos tests. It returns
// false if the replica does not exist.
func (d *InProcess) DegradeReplica(id string, delay time.Duration) bool {
	d.mu.Lock()
	p, ok := d.procletLocked(id)
	d.mu.Unlock()
	if !ok {
		return false
	}
	p.InjectDataPlaneDelay(delay)
	return true
}

// DegradeBatching stalls a replica's data-plane response flusher by stall
// before every batch write (0 restores it), forcing its responses to
// coalesce into deep batches. It returns false if the replica does not
// exist.
func (d *InProcess) DegradeBatching(id string, stall time.Duration) bool {
	d.mu.Lock()
	p, ok := d.procletLocked(id)
	d.mu.Unlock()
	if !ok {
		return false
	}
	p.InjectFlushStall(stall)
	return true
}

// StallReads stalls a replica's data-plane frame reader by stall before
// every batched read (0 restores it) — the slow-reader fault: inbound
// requests pile up in the socket buffer and drain in deep read batches. It
// returns false if the replica does not exist.
func (d *InProcess) StallReads(id string, stall time.Duration) bool {
	d.mu.Lock()
	p, ok := d.procletLocked(id)
	d.mu.Unlock()
	if !ok {
		return false
	}
	p.InjectReadStall(stall)
	return true
}

// KillReplica abruptly terminates a replica's proclet (no graceful
// shutdown), simulating a crash for chaos tests. It returns false if the
// replica does not exist.
func (d *InProcess) KillReplica(id string) bool {
	d.mu.Lock()
	p, ok := d.procletLocked(id)
	if ok {
		delete(d.proclets, id)
	}
	d.mu.Unlock()
	if !ok {
		return false
	}
	p.Shutdown(fmt.Errorf("killed by test"))
	return true
}

// RestartManager simulates a manager crash and rebuild: the old manager is
// detached (its control loops stop; its replicas keep running and keep
// serving data-plane traffic), a fresh manager is built from the original
// config with empty observed state, adopts the fleet's envelopes, and they
// are repointed at it. The call returns once the new manager has recovered
// the fleet — every proclet re-registered, the routing epoch floored above
// everything the proclets have applied, and routing rebroadcast for every
// group — or once ctx expires (recovery is then finished with whatever
// re-registered).
func (d *InProcess) RestartManager(ctx context.Context) (*manager.Manager, error) {
	old := d.Manager
	envs := old.Envelopes()
	old.Detach()

	mgr, err := manager.New(d.cfg, d.starter)
	if err != nil {
		return nil, fmt.Errorf("deploy: rebuilding manager: %w", err)
	}
	mgr.Adopt(envs)
	d.ref.p.Store(mgr)
	d.Manager = mgr
	return mgr, mgr.Recover(ctx)
}

// Stop shuts the deployment down.
func (d *InProcess) Stop() {
	d.Manager.Stop()
	d.mu.Lock()
	procs := make([]*proclet.Proclet, 0, len(d.proclets))
	for _, p := range d.proclets {
		procs = append(procs, p)
	}
	d.proclets = map[string]*proclet.Proclet{}
	d.mu.Unlock()
	for _, p := range procs {
		p.Shutdown(nil)
	}
}
