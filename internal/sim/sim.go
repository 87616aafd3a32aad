// Package sim is a deterministic simulation testing harness for the
// deployment fabric, in the spirit the paper sketches in §5.3: because an
// entire "distributed" application — manager, envelopes, proclets, routing,
// and real TCP data planes — fits inside one test process, whole-system
// fault exploration becomes a unit test.
//
// A run derives a schedule of operations from a single PRNG seed
// (Generate), executes it step by step against a fresh in-process
// deployment, and checks global invariants after every step:
//
//   - per-key register semantics on a routed store: a read (direct or
//     through a colocated proxy) must return the last acknowledged write
//     since the key's hosting topology last changed;
//   - at-most-once semantics for weaver:noretry calls: every acknowledged
//     delivery executed exactly once, nothing executed twice, nothing
//     executed that was never sent;
//   - routing epochs observed by the driver never regress — including
//     across a manager teardown and rebuild (OpMgrRestart);
//   - the published control-plane state satisfies its structural
//     invariants after every op (hosting bijection, epoch bounds, replica
//     bookkeeping — cplane.CheckInvariants; applied epochs in the status
//     table — cplane.CheckApplied), and no live proclet hosts a
//     component the control plane assigns to another group;
//   - every proclet's data-plane conn holds replica entries only for the
//     addresses of the routing push it applied.
//
// Faults — replica crashes, explicit resharding, live re-placement,
// manager restarts, and data-plane degradation — are drawn from the same
// seed, so a failure
// reproduces from the printed seed alone, and the harness shrinks the
// failing schedule to a minimal op trace (Shrink) before reporting it.
//
// Every step that could be timing-dependent is fenced: after each topology
// mutation the harness waits until the manager's latest routing push has
// been applied by the driver and by every replica of the affected group
// (the colocated callers), so schedules are replayable even though the
// deployment underneath runs real goroutines and real sockets.
package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/cplane"
	"repro/internal/deploy"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/testpkg"
	"repro/weaver"
)

const (
	storeName = "repro/internal/testpkg/Store"
	proxyName = "repro/internal/testpkg/StoreProxy"
	moverName = "repro/internal/testpkg/Mover"

	// simDegradeDelay is small enough that degraded replicas stay inside
	// call deadlines (degradation must not taint value expectations), large
	// enough to reorder real work under the race detector.
	simDegradeDelay = 50 * time.Millisecond

	// simBatchStall is the response-flusher stall injected by
	// degrade-dataplane-batching ops: each batch write pauses this long, so
	// concurrent responses from the replica coalesce into deep batches
	// while individual calls stay far inside op deadlines.
	simBatchStall = 2 * time.Millisecond

	// simReadStall is the frame-reader stall injected by stall-read ops:
	// each batched read pauses this long, so inbound requests pile up in
	// the replica's socket buffer and drain in deep read batches while
	// individual calls stay far inside op deadlines.
	simReadStall = 2 * time.Millisecond

	opTimeout     = 5 * time.Second
	settleTimeout = 20 * time.Second
)

// Options configures simulation runs.
type Options struct {
	// Ops is the schedule length derived from each seed (default 24).
	Ops int
	// Bypass runs the deployment with the historical assignment-ignoring
	// colocated dispatch (deploy.Options.BypassAssignmentDispatch), so
	// tests can demonstrate the harness rediscovering that bug from a seed.
	Bypass bool
	// ShrinkBudget caps how many extra deployments a shrink may boot
	// (default 16).
	ShrinkBudget int
	// Log, when set, receives progress lines (typically t.Logf).
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 24
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 16
	}
	return o
}

// Report is the outcome of one seeded run.
type Report struct {
	Seed  uint64
	Trace []Op
	// Violation is the first invariant violation ("" for a clean run).
	Violation string
	// Shrunk is the minimized still-failing trace, with ShrunkViolation the
	// violation it produces. Only set when Violation is non-empty.
	Shrunk          []Op
	ShrunkViolation string
}

func fill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	return weaver.FillComponent(impl, name, logger, resolve, nil)
}

// world is one deployment under simulation plus the checker's model of it.
type world struct {
	d *deploy.InProcess
	// faults is the deployment's fault-injection surface. Fault ops go
	// through the interface (not the concrete deployment) so the schedule
	// grammar stays portable to any deployment implementing chaos.Surface.
	faults chaos.Surface
	store  testpkg.Store
	proxy  testpkg.StoreProxy
	mover  testpkg.Mover
	echo   testpkg.Echo

	// expect holds the per-key register expectation: the last acknowledged
	// write since the key's hosting topology last changed. Keys are removed
	// ("tainted") when the kv group's replica set or assignment changes —
	// the store keeps replica-local in-memory state, so affinity is a
	// cache-locality mechanism, not durability.
	expect map[string]int64
	// tried/acked track Deliver sequence numbers that were sent and that
	// returned success, for the at-most-once check against the store's
	// process-global execution counts.
	tried map[int64]bool
	acked map[int64]bool

	kvSize     int
	moverGroup string
	// lastVersion tracks the routing epoch the driver has applied per
	// component, for the monotonicity invariant.
	lastVersion map[string]uint64
}

func newWorld(ctx context.Context, bypass bool) (*world, error) {
	testpkg.ResetMoverCounts()
	testpkg.ResetStoreEvents()
	d, err := deploy.StartInProcess(ctx, deploy.Options{
		Config: manager.Config{
			App: "sim",
			Groups: map[string][]string{
				"kv": {storeName, proxyName},
				"mv": {moverName},
			},
			Autoscale: map[string]autoscale.Config{
				"kv": {MinReplicas: 2, MaxReplicas: 3},
				"mv": {MinReplicas: 1, MaxReplicas: 3},
			},
			// The schedule owns topology: park the autoscaler, and let the
			// manager heal any number of injected crashes.
			ScaleInterval: time.Hour,
			MaxRestarts:   1000,
			// Tight admission budgets so OpBurst's concurrent low-priority
			// reads overflow the queue and get shed; sequential ops never
			// come close to the limit.
			MaxInflightPerReplica: 2,
			MaxOverloadQueue:      2,
			Logger:                logging.New(logging.Options{Component: "manager", Min: logging.LevelError}),
		},
		Fill:                     fill,
		BypassAssignmentDispatch: bypass,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: boot: %w", err)
	}
	w := &world{
		d:           d,
		faults:      d,
		expect:      map[string]int64{},
		tried:       map[int64]bool{},
		acked:       map[int64]bool{},
		kvSize:      2,
		moverGroup:  "mv",
		lastVersion: map[string]uint64{},
	}
	ok := false
	defer func() {
		if !ok {
			d.Stop()
		}
	}()
	if w.store, err = deploy.Get[testpkg.Store](ctx, d); err != nil {
		return nil, err
	}
	if w.proxy, err = deploy.Get[testpkg.StoreProxy](ctx, d); err != nil {
		return nil, err
	}
	if w.mover, err = deploy.Get[testpkg.Mover](ctx, d); err != nil {
		return nil, err
	}
	if w.echo, err = deploy.Get[testpkg.Echo](ctx, d); err != nil {
		return nil, err
	}

	// Prime every client so each group starts and the driver installs
	// routes, then fence on the initial assignment.
	bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := w.store.Get(bctx, "boot"); err != nil {
		return nil, fmt.Errorf("sim: prime store: %w", err)
	}
	if _, err := w.proxy.GetVia(bctx, "boot"); err != nil {
		return nil, fmt.Errorf("sim: prime proxy: %w", err)
	}
	w.tried[0] = true
	if _, err := w.mover.Deliver(bctx, 0); err != nil {
		return nil, fmt.Errorf("sim: prime mover: %w", err)
	}
	w.acked[0] = true
	if _, err := w.echo.Echo(bctx, "boot"); err != nil {
		return nil, fmt.Errorf("sim: prime echo: %w", err)
	}
	if err := w.settle(ctx); err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

func (w *world) close() { w.d.Stop() }

// resolveGroup maps a trace's abstract fault target to the live group name:
// "mv" follows Mover as re-placements move it between groups.
func (w *world) resolveGroup(g string) string {
	if g == "mv" {
		return w.moverGroup
	}
	return g
}

// taint forgets every register expectation. Called when the kv group's
// replica set or assignment changes: replica-local state does not survive
// crashes, and resharding remaps keys onto replicas that never saw them.
func (w *world) taint() {
	for k := range w.expect {
		delete(w.expect, k)
	}
}

// checkProxyReads reads a key back through the proxy twice in a row.
// Driver→proxy dispatch is round-robin, so with two or more replicas the
// two reads land on two distinct proxy replicas — which makes
// assignment-blind colocated dispatch fail deterministically (one of the
// sampled replicas is not the key's owner) instead of depending on how the
// ephemeral ports happened to sort this run.
func (w *world) checkProxyReads(ctx context.Context, i int, op Op) string {
	for j := 0; j < 2; j++ {
		got, err := w.proxy.GetVia(ctx, op.Key)
		if err != nil {
			continue // availability is not this harness's invariant
		}
		if want, ok := w.expect[op.Key]; ok && got != want {
			return fmt.Sprintf("op %d (%s): proxied read #%d of %q = %d, want %d (colocated dispatch off the assignment owner?)",
				i, op, j, op.Key, got, want)
		}
	}
	return ""
}

// checkAMO verifies at-most-once accounting for Deliver: every acknowledged
// sequence executed exactly once, nothing executed twice, and nothing
// executed that the schedule never sent.
func (w *world) checkAMO(at string) string {
	counts := testpkg.MoverCounts()
	for seq := range w.acked {
		if n := counts[seq]; n != 1 {
			return fmt.Sprintf("%s: at-most-once violated: acked deliver %d executed %d times", at, seq, n)
		}
	}
	for seq, n := range counts {
		if n > 1 {
			return fmt.Sprintf("%s: deliver %d executed %d times (duplicate execution)", at, seq, n)
		}
		if !w.tried[seq] {
			return fmt.Sprintf("%s: phantom execution of deliver %d, which was never sent", at, seq)
		}
	}
	return ""
}

// apply executes one op and returns the first invariant violation it
// observes ("" if none). The error return is for harness failures — boot,
// settle, or move-protocol errors — which are bugs in the test rig (or the
// fabric's liveness), not invariant violations to shrink.
func (w *world) apply(ctx context.Context, i int, op Op) (string, error) {
	step, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()

	switch op.Kind {
	case OpPut:
		if _, err := w.store.Put(step, op.Key, op.Val); err != nil {
			delete(w.expect, op.Key) // outcome unknown
		} else {
			w.expect[op.Key] = op.Val
		}

	case OpGet:
		got, err := w.store.Get(step, op.Key)
		if err != nil {
			break
		}
		if want, ok := w.expect[op.Key]; ok && got != want {
			return fmt.Sprintf("op %d (%s): direct read of %q = %d, want %d", i, op, op.Key, got, want), nil
		}

	case OpProxyPut:
		if _, err := w.proxy.PutVia(step, op.Key, op.Val); err != nil {
			delete(w.expect, op.Key)
			break
		}
		w.expect[op.Key] = op.Val
		// Self-verify immediately: a write the proxy relayed to a
		// non-owner replica is invisible to the owner, and the double
		// read samples both replicas.
		if v := w.checkProxyReads(step, i, op); v != "" {
			return v, nil
		}

	case OpProxyGet:
		if v := w.checkProxyReads(step, i, op); v != "" {
			return v, nil
		}

	case OpDeliver:
		w.tried[op.Val] = true
		if _, err := w.mover.Deliver(step, op.Val); err == nil {
			w.acked[op.Val] = true
		}
		if v := w.checkAMO(fmt.Sprintf("op %d (%s)", i, op)); v != "" {
			return v, nil
		}

	case OpBurst:
		// Saturate admission with concurrent low-priority reads while
		// at-most-once high-priority delivers race them. Shedding is the
		// expected outcome for some of the reads (availability is not the
		// invariant); what must hold afterwards is that any read that did
		// succeed saw the register value and that the delivery ledger still
		// balances — no acked deliver lost, none executed twice.
		for seq := op.Val; seq < op.Val+burstDelivers; seq++ {
			w.tried[seq] = true
		}
		gets := make([]int64, burstGets)
		getErrs := make([]error, burstGets)
		delErrs := make([]error, burstDelivers)
		var wg sync.WaitGroup
		for j := 0; j < burstGets; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				gets[j], getErrs[j] = w.store.Get(step, op.Key)
			}(j)
		}
		for j := 0; j < burstDelivers; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				_, delErrs[j] = w.mover.Deliver(step, op.Val+int64(j))
			}(j)
		}
		wg.Wait()
		for j, err := range delErrs {
			if err == nil {
				w.acked[op.Val+int64(j)] = true
			}
		}
		if want, ok := w.expect[op.Key]; ok {
			for j, err := range getErrs {
				if err == nil && gets[j] != want {
					return fmt.Sprintf("op %d (%s): burst read #%d of %q = %d, want %d", i, op, j, op.Key, gets[j], want), nil
				}
			}
		}
		if v := w.checkAMO(fmt.Sprintf("op %d (%s)", i, op)); v != "" {
			return v, nil
		}

	case OpEcho:
		if got, err := w.echo.Echo(step, "ping"); err == nil && got != "ping" {
			return fmt.Sprintf("op %d (%s): echo corrupted: %q", i, op, got), nil
		}

	case OpKill:
		group := w.resolveGroup(op.Group)
		ids := w.d.GroupReplicas(group)
		if len(ids) == 0 {
			break
		}
		if !w.d.KillReplica(ids[op.Index%len(ids)]) {
			break
		}
		if group == "kv" {
			w.taint()
		}
		if err := w.settle(ctx); err != nil {
			return "", fmt.Errorf("op %d (%s): %w", i, op, err)
		}

	case OpScale:
		group := w.resolveGroup(op.Group)
		if err := w.d.Manager.ResizeGroup(step, group, op.N); err != nil {
			break // e.g. the group dissolved after a move; benign no-op
		}
		if group == "kv" {
			w.kvSize = op.N
			w.taint()
		}
		if err := w.settle(ctx); err != nil {
			return "", fmt.Errorf("op %d (%s): %w", i, op, err)
		}

	case OpMove:
		dest := "mv2"
		if w.moverGroup == "mv2" {
			dest = "mv"
		}
		if err := w.d.Manager.MoveComponent(step, moverName, dest); err != nil {
			return "", fmt.Errorf("op %d (%s): MoveComponent: %w", i, op, err)
		}
		w.moverGroup = dest
		if err := w.settle(ctx); err != nil {
			return "", fmt.Errorf("op %d (%s): %w", i, op, err)
		}

	case OpDegrade:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) > 0 {
			w.faults.DegradeReplica(ids[op.Index%len(ids)], simDegradeDelay)
		}

	case OpRestore:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) > 0 {
			w.faults.DegradeReplica(ids[op.Index%len(ids)], 0)
		}

	case OpDegradeBatch:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) > 0 {
			w.faults.DegradeBatching(ids[op.Index%len(ids)], simBatchStall)
		}

	case OpRestoreBatch:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) > 0 {
			w.faults.DegradeBatching(ids[op.Index%len(ids)], 0)
		}

	case OpStallRead:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) == 0 {
			break
		}
		w.faults.StallReads(ids[op.Index%len(ids)], simReadStall)
		// Probe the at-most-once ledger through the stalled reader: the
		// deliver drains from a deep socket backlog, but it must still
		// execute exactly once if acked and never twice. Probe sequence
		// numbers are negative (unique per op index), so they can never
		// collide with the schedule's own deliver numbering.
		probe := -int64(i) - 1
		w.tried[probe] = true
		if _, err := w.mover.Deliver(step, probe); err == nil {
			w.acked[probe] = true
		}
		if v := w.checkAMO(fmt.Sprintf("op %d (%s)", i, op)); v != "" {
			return v, nil
		}

	case OpRestoreRead:
		ids := w.d.GroupReplicas(w.resolveGroup(op.Group))
		if len(ids) > 0 {
			w.faults.StallReads(ids[op.Index%len(ids)], 0)
		}

	case OpMgrRestart:
		// Tear the manager down and rebuild it purely from proclet
		// re-registration. The fleet keeps running; afterwards the routing
		// epoch must sit above everything the driver ever observed (no
		// regressions under the new manager) and the at-most-once ledger
		// must still balance.
		rctx, rcancel := context.WithTimeout(ctx, settleTimeout)
		mgr, err := w.d.RestartManager(rctx)
		rcancel()
		if err != nil {
			return "", fmt.Errorf("op %d (%s): RestartManager: %w", i, op, err)
		}
		var maxApplied uint64
		for _, v := range w.lastVersion {
			if v > maxApplied {
				maxApplied = v
			}
		}
		if post := mgr.RouteEpoch(); post < maxApplied {
			return fmt.Sprintf("op %d (%s): rebuilt manager recovered epoch %d below applied epoch %d",
				i, op, post, maxApplied), nil
		}
		if err := w.settle(ctx); err != nil {
			return "", fmt.Errorf("op %d (%s): %w", i, op, err)
		}
		if v := w.checkAMO(fmt.Sprintf("op %d (%s)", i, op)); v != "" {
			return v, nil
		}
	}

	// Routing epochs the driver observes must never regress.
	for _, comp := range []string{storeName, proxyName, moverName} {
		v := w.d.RoutingVersion(comp)
		if v < w.lastVersion[comp] {
			return fmt.Sprintf("op %d (%s): routing epoch for %s regressed %d -> %d",
				i, op, comp, w.lastVersion[comp], v), nil
		}
		w.lastVersion[comp] = v
	}
	if v := w.checkControlState(i, op); v != "" {
		return v, nil
	}
	return "", nil
}

// checkControlState asserts the control plane's structural invariants on
// the published state after every op (epoch bounds, hosting bijection,
// replica bookkeeping), and cross-checks it against the live fleet: no
// proclet the control plane believes in may host a component the control
// plane assigns elsewhere (an orphaned hosting would mean a move or crash
// left stale handlers serving).
func (w *world) checkControlState(i int, op Op) string {
	if err := w.d.Manager.CheckApplied(); err != nil {
		return fmt.Sprintf("op %d (%s): control-plane invariant: %v", i, op, err)
	}
	s := w.d.Manager.ControlState()
	if err := cplane.CheckInvariants(s); err != nil {
		return fmt.Sprintf("op %d (%s): control-plane invariant: %v", i, op, err)
	}
	live := map[string]string{} // replica id -> group
	for name, g := range s.Groups {
		for id := range g.Replicas {
			live[id] = name
		}
	}
	for id, p := range w.d.Proclets() {
		gname, ok := live[id]
		if !ok {
			continue // dead or not-yet-registered proclets hold no authority
		}
		for _, c := range p.Hosted() {
			if s.CompGroup[c] != gname {
				return fmt.Sprintf("op %d (%s): orphaned hosting: proclet %s (group %s) hosts %s, control plane assigns it to %s",
					i, op, id, gname, c, s.CompGroup[c])
			}
		}
	}
	return w.checkReplicaTables(i, op, s.CompGroup)
}

// checkReplicaTables asserts that every proclet's data-plane conn holds
// replica entries — clients and breakers — only for the addresses of the
// routing push it applied, so a replaced or removed replica leaves none
// behind. A conn that has not applied the manager's latest push for its
// component has one on the way and is checked after a later op.
func (w *world) checkReplicaTables(i int, op Op, compGroup map[string]string) string {
	comps := make([]string, 0, len(compGroup))
	for c := range compGroup {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, comp := range comps {
		v, pushed := w.d.Manager.LastRouting(comp)
		for id, p := range w.d.Proclets() {
			conn, ok := p.Route(comp)
			if !ok {
				continue
			}
			epoch, table := conn.Applied()
			if epoch != v {
				continue
			}
			for _, addr := range table {
				if !slices.Contains(pushed, addr) {
					return fmt.Sprintf("op %d (%s): proclet %s holds a %s replica entry for %s outside its applied push %v (epoch %d)",
						i, op, id, comp, addr, pushed, epoch)
				}
			}
		}
	}
	return ""
}

// settle blocks until the deployment has converged on the current topology:
// groups are back at their target sizes and the manager's newest routing
// push for each component has been applied by the driver and — for the kv
// group, whose replicas are themselves callers of the routed store — by
// every replica of the group. Observing an applied version v implies the
// replica's balancer picks with assignment v, so workload ops that resume
// after settle see one consistent topology; that fencing is what makes
// schedules deterministic on top of real goroutines and sockets.
func (w *world) settle(ctx context.Context) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		if w.settled() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: deployment did not settle within %v", settleTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (w *world) settled() bool {
	kvIDs := w.d.GroupReplicas("kv")
	if len(kvIDs) != w.kvSize {
		return false
	}
	if len(w.d.GroupReplicas(w.moverGroup)) == 0 {
		return false
	}
	for _, comp := range []string{storeName, proxyName} {
		v, addrs := w.d.Manager.LastRouting(comp)
		if v == 0 || len(addrs) != w.kvSize {
			return false
		}
		if w.d.RoutingVersion(comp) < v || w.d.RoutingReplicas(comp) != len(addrs) {
			return false
		}
		for _, id := range kvIDs {
			p, ok := w.d.Proclet(id)
			if !ok {
				return false
			}
			if p.RoutingVersion(comp) < v || p.RoutingReplicas(comp) != len(addrs) {
				return false
			}
		}
	}
	v, addrs := w.d.Manager.LastRouting(moverName)
	if v == 0 || len(addrs) == 0 {
		return false
	}
	if w.d.RoutingVersion(moverName) < v || w.d.RoutingReplicas(moverName) != len(addrs) {
		return false
	}
	return true
}

// RunTrace executes one trace against a fresh deployment and returns the
// first invariant violation it produces ("" for a clean run). The error
// return reports harness failures, not violations.
func RunTrace(ctx context.Context, opts Options, trace []Op) (string, error) {
	opts = opts.withDefaults()
	w, err := newWorld(ctx, opts.Bypass)
	if err != nil {
		return "", err
	}
	defer w.close()
	for i, op := range trace {
		v, err := w.apply(ctx, i, op)
		if err != nil {
			return "", err
		}
		if v != "" {
			return v, nil
		}
	}
	// Final sweep: every still-established expectation must read back, and
	// the at-most-once ledger must balance.
	keys := make([]string, 0, len(w.expect))
	for k := range w.expect {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fctx, cancel := context.WithTimeout(ctx, opTimeout)
		got, err := w.store.Get(fctx, k)
		cancel()
		if err == nil && got != w.expect[k] {
			return fmt.Sprintf("final sweep: read of %q = %d, want %d", k, got, w.expect[k]), nil
		}
	}
	if v := w.checkAMO("final sweep"); v != "" {
		return v, nil
	}
	return "", nil
}

// RunSeed generates the seed's schedule, executes it, and — if it violated
// an invariant — shrinks the failing schedule to a minimal trace.
func RunSeed(ctx context.Context, opts Options, seed uint64) (*Report, error) {
	opts = opts.withDefaults()
	trace := Generate(seed, opts.Ops)
	rep := &Report{Seed: seed, Trace: trace}
	v, err := RunTrace(ctx, opts, trace)
	if err != nil {
		return nil, err
	}
	rep.Violation = v
	if v == "" {
		return rep, nil
	}
	rep.Shrunk, rep.ShrunkViolation, err = Shrink(ctx, opts, trace)
	if err != nil {
		return nil, err
	}
	if rep.ShrunkViolation == "" {
		// Shrinking could not re-trigger anything (budget too small or a
		// schedule-dependent bug); fall back to the full trace.
		rep.Shrunk, rep.ShrunkViolation = trace, v
	}
	return rep, nil
}

// Run executes a campaign of seeded runs and fails t on any violation,
// printing the seed, the violation, and the shrunk reproduction trace.
func Run(t *testing.T, opts Options, seeds ...uint64) {
	t.Helper()
	opts = opts.withDefaults()
	ctx := context.Background()
	for _, seed := range seeds {
		rep, err := RunSeed(ctx, opts, seed)
		if err != nil {
			t.Fatalf("sim: seed %d: harness error: %v", seed, err)
		}
		if rep.Violation == "" {
			if opts.Log != nil {
				opts.Log("sim: seed %d clean (%d ops)", seed, len(rep.Trace))
			}
			continue
		}
		t.Errorf("sim: seed %d violated an invariant:\n  %s\nshrunk reproduction (%d of %d ops):\n%s\n  -> %s\nreplay with: go test ./internal/sim -run TestSimSeed -sim.seed=%d",
			seed, rep.Violation, len(rep.Shrunk), len(rep.Trace), FormatTrace(rep.Shrunk), rep.ShrunkViolation, seed)
	}
}
