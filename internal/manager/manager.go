// Package manager implements the global manager from the paper's deployer
// architecture (Figure 3): the control plane that decides where components
// run, how many replicas each group gets, and how requests are routed. It
// receives proclet API calls (Table 1) relayed by envelopes, launches new
// replicas through a deployer-provided Starter, feeds load reports to the
// autoscaler, aggregates metrics/logs/traces, and pushes routing updates.
//
// The manager is strictly a control plane: proclets exchange data-plane
// traffic directly with one another.
//
// Internally the manager is a reconciler/actuator split over a versioned
// desired-state store (internal/cplane, DESIGN.md §14): decision loops are
// pure reconcilers from an observed snapshot to a desired state, and one
// actuator (actuator.go) diffs desired against observed and performs the
// envelope operations — it is the only code that starts replicas, stops
// them, or pushes routing.
package manager

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/callgraph"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cplane"
	"repro/internal/envelope"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/ring"
	"repro/internal/tracing"
)

// ComponentInfo describes one component of the application being deployed.
// Deployers obtain the inventory from the application binary itself
// (WEAVER_DESCRIBE) or from the in-process registry.
type ComponentInfo struct {
	Name   string
	Routed bool
}

// Config parameterizes a deployment.
type Config struct {
	// App names the application; Version identifies this rollout.
	App     string
	Version string

	// Components is the application's component inventory.
	Components []ComponentInfo

	// Groups maps a colocation group name to the full names of the
	// components it hosts. Components in the same group share an OS
	// process. Components not mentioned anywhere get a singleton group of
	// their own (the paper's apples-to-apples "no co-location" default).
	// The special group "main" is the driver process started by the
	// deployer; it exists even if it hosts no components.
	Groups map[string][]string

	// DefaultAutoscale applies to groups without an explicit entry in
	// Autoscale.
	DefaultAutoscale autoscale.Config
	Autoscale        map[string]autoscale.Config

	// ScaleInterval is the autoscaler evaluation period (default 500ms).
	ScaleInterval time.Duration

	// MaxRestarts bounds automatic restarts of crashed replicas per group
	// (default 8).
	MaxRestarts int

	// MaxInflightPerReplica bounds concurrently executing data-plane
	// requests in each replica; MaxOverloadQueue bounds the admission wait
	// queue beyond that. Requests past both bounds are shed with a fast
	// overloaded status instead of queueing unboundedly (paper §5: the
	// runtime owns graceful handling of overload). Zero means unlimited.
	// Deployers read these when starting replicas.
	MaxInflightPerReplica int
	MaxOverloadQueue      int

	// PlacementInterval enables the live re-placement control loop: every
	// interval the manager re-plans colocation from the merged call graph
	// and, when the plan's locality score beats the running grouping by at
	// least placementMinGain, moves components between groups at runtime.
	// Zero disables the loop; MoveComponent remains available either way.
	PlacementInterval time.Duration
	// PlacementMinCalls is how many calls the merged graph must have seen
	// before the loop trusts it enough to plan (default 100).
	PlacementMinCalls uint64

	// Clock injects time for the crash-restart backoff; nil means the real
	// clock. Tests drive restarts with a fake clock.
	Clock clock.Clock

	Logger *logging.Logger
}

// Starter launches one replica of a group and returns its envelope. The
// manager passes itself as the envelope's Manager.
type Starter func(ctx context.Context, group, replicaID string, mgr envelope.Manager) (*envelope.Envelope, error)

// restartBackoff is how long a crashed replica waits before relaunching.
const restartBackoff = 100 * time.Millisecond

// replicaStaleAfter marks a replica unhealthy when it has not reported
// load for this long.
const replicaStaleAfter = 5 * time.Second

// slicesPerReplica is the affinity-assignment granularity.
const slicesPerReplica = 4

// placementMinGain is the minimum locality-score improvement (absolute,
// in [0,1]) worth moving components for. The loop plans with placement's
// defaults (the zero placement.Config).
const placementMinGain = 0.05

// Manager is the global manager.
type Manager struct {
	cfg     Config
	starter Starter
	ctx     context.Context
	cancel  context.CancelFunc
	clk     clock.Clock

	// store holds the versioned control-plane state (the single source of
	// truth for groups, replicas, hosting, and routing epochs). All
	// decision logic reads snapshots and commits desired states here.
	store *cplane.Store
	// status holds what replicas last reported (load, report time, applied
	// routing epochs), updated in place; its entries follow the store's
	// replica records (cplane.Status).
	status *cplane.Status

	known     map[string]bool // component inventory (immutable after New)
	routedSet map[string]bool // routed components of the inventory

	// mu guards the runtime registries that cannot live in the value store:
	// live envelope handles and per-replica metrics batches.
	mu        sync.Mutex
	envs      map[string]*envelope.Envelope // replica id -> envelope
	envelopes map[*envelope.Envelope]bool   // every envelope we push to
	stopped   bool

	// Manager-rebuild recovery: while recovering > 0, registrations are
	// adoptions of already-running replicas and routing broadcasts are
	// deferred until the fleet has re-registered (or recovery is forced).
	recovering   int
	reregistered map[string]bool
	recovered    chan struct{}
	recoveryDone bool

	// asMu guards the per-group autoscalers (they carry hysteresis state,
	// so they live outside the value store).
	asMu sync.Mutex
	as   map[string]*autoscale.Autoscaler

	// moveMu serializes re-placement moves; moves (under mu) records the
	// applied ones.
	moveMu sync.Mutex
	moves  []MoveRecord

	// actMu guards the actuator action log (a bounded ring shown on the
	// /control dashboard page).
	actMu   sync.Mutex
	actions []ActionRecord

	logs    *logging.Aggregator
	graph   *callgraph.Collector
	metrics map[string][]metrics.Snapshot // replica id -> latest snapshot
	pids    map[string]int64              // replica id -> registered pid
	process map[int64][]metrics.Snapshot  // pid -> latest process-global snapshot

	traceMu sync.Mutex
	spans   *ring.Buffer[tracing.Span] // the newest maxSpans spans
}

// maxSpans bounds the trace spans the manager retains.
const maxSpans = 200000

// New builds a manager for the given deployment. Call Stop when done.
func New(cfg Config, starter Starter) (*Manager, error) {
	if len(cfg.Components) == 0 {
		return nil, fmt.Errorf("manager: no components in inventory")
	}
	if cfg.Logger == nil {
		cfg.Logger = logging.New(logging.Options{Component: "manager"})
	}
	if cfg.ScaleInterval <= 0 {
		cfg.ScaleInterval = 500 * time.Millisecond
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.PlacementMinCalls == 0 {
		cfg.PlacementMinCalls = 100
	}

	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		starter:   starter,
		ctx:       ctx,
		cancel:    cancel,
		clk:       clock.Or(cfg.Clock),
		status:    cplane.NewStatus(),
		envs:      map[string]*envelope.Envelope{},
		envelopes: map[*envelope.Envelope]bool{},
		as:        map[string]*autoscale.Autoscaler{},
		logs:      logging.NewAggregator(200000),
		spans:     ring.New[tracing.Span](maxSpans),
		graph:     callgraph.NewCollector(),
		metrics:   map[string][]metrics.Snapshot{},
		pids:      map[string]int64{},
		process:   map[int64][]metrics.Snapshot{},
	}

	m.known = map[string]bool{}
	m.routedSet = map[string]bool{}
	for _, c := range cfg.Components {
		m.known[c.Name] = true
		if c.Routed {
			m.routedSet[c.Name] = true
		}
	}

	init, err := m.initialState()
	if err != nil {
		cancel()
		return nil, err
	}
	m.store = cplane.NewStore(init)

	go m.scaleLoop()
	if cfg.PlacementInterval > 0 {
		go m.placementLoop()
	}
	return m, nil
}

// initialState builds the seed control-plane state from the config:
// explicit groups (sorted for determinism), the always-present main group,
// and singleton groups for every unassigned component.
func (m *Manager) initialState() (*cplane.State, error) {
	s := cplane.NewState()
	groupNames := make([]string, 0, len(m.cfg.Groups))
	for name := range m.cfg.Groups {
		groupNames = append(groupNames, name)
	}
	sort.Strings(groupNames)
	for _, name := range groupNames {
		if err := m.addGroupTo(s, name, m.cfg.Groups[name]); err != nil {
			return nil, err
		}
	}
	if _, ok := s.Groups["main"]; !ok {
		if err := m.addGroupTo(s, "main", nil); err != nil {
			return nil, err
		}
	}
	for _, c := range m.cfg.Components {
		if _, ok := s.CompGroup[c.Name]; ok {
			continue
		}
		name := core.ShortName(c.Name)
		if _, clash := s.Groups[name]; clash {
			name = strings.ReplaceAll(c.Name, "/", ".")
		}
		if err := m.addGroupTo(s, name, []string{c.Name}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// addGroupTo validates components against the inventory and creates a
// group in s. Re-placement and recovery use it to create groups at
// runtime.
func (m *Manager) addGroupTo(s *cplane.State, name string, components []string) error {
	for _, c := range components {
		if !m.known[c] {
			return fmt.Errorf("manager: group %q lists unknown component %q", name, c)
		}
	}
	if _, err := s.AddGroup(name, components, m.routedSet); err != nil {
		return fmt.Errorf("manager: %w", err)
	}
	return nil
}

// scaler returns the autoscaler for a group, creating it on first use.
func (m *Manager) scaler(group string) *autoscale.Autoscaler {
	m.asMu.Lock()
	defer m.asMu.Unlock()
	if as, ok := m.as[group]; ok {
		return as
	}
	cfg := m.cfg.DefaultAutoscale
	if c, ok := m.cfg.Autoscale[group]; ok {
		cfg = c
	}
	as := autoscale.New(cfg)
	m.as[group] = as
	return as
}

func (m *Manager) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// GroupOf returns the colocation group hosting a component.
func (m *Manager) GroupOf(component string) (string, bool) {
	s := m.store.Snapshot()
	g, ok := s.CompGroup[component]
	return g, ok
}

// LogAggregator returns the manager's log aggregator.
func (m *Manager) LogAggregator() *logging.Aggregator { return m.logs }

// Graph returns the aggregated application call graph.
func (m *Manager) Graph() *callgraph.Collector { return m.graph }

// Spans returns a copy of the collected trace spans.
func (m *Manager) Spans() []tracing.Span {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	return m.spans.AppendTo(make([]tracing.Span, 0, m.spans.Len()))
}

// MergedMetrics aggregates the latest metric snapshot across all replicas,
// counting each process's process-global registry once however many
// replicas that process hosts.
func (m *Manager) MergedMetrics() map[string]metrics.Snapshot {
	m.mu.Lock()
	batches := make([][]metrics.Snapshot, 0, len(m.metrics)+len(m.process))
	for _, b := range m.metrics {
		batches = append(batches, b)
	}
	for _, b := range m.process {
		batches = append(batches, b)
	}
	m.mu.Unlock()
	return metrics.MergeAll(batches...)
}

// ControlState returns the current control-plane snapshot. Callers must
// treat it as read-only. Harnesses assert invariants on it; the dashboard
// renders it.
func (m *Manager) ControlState() *cplane.State { return m.store.Snapshot() }

// CheckApplied verifies that no replica has applied a routing epoch beyond
// the current RouteEpoch (cplane.CheckApplied).
func (m *Manager) CheckApplied() error {
	return cplane.CheckApplied(m.status, m.store.Snapshot)
}

// StartGroup ensures that the named group is running at least n replicas.
// The deployer calls it for "main"; everything else starts on demand.
func (m *Manager) StartGroup(ctx context.Context, name string, n int) error {
	found := false
	var acts cplane.Actions
	m.store.Update(func(s *cplane.State) {
		g := s.Groups[name]
		if g == nil {
			return
		}
		found = true
		need := n - len(g.Replicas) - g.Starting
		if need > 0 {
			g.Starting += need
			acts.Start = []cplane.StartAction{{Group: name, N: need}}
		}
	})
	if !found {
		return fmt.Errorf("manager: unknown group %q", name)
	}
	return m.actuate(ctx, acts, actuateOpts{sync: true})
}

// ResizeGroup sets a group's replica count to exactly n, synchronously:
// scale-ups return once the new replicas are started, scale-downs once the
// stopped replicas (newest first) have drained and exited. It is the
// scriptable replica lifecycle used by the simulation harness; unlike the
// autoscaler it is driven by the test schedule, not by load.
func (m *Manager) ResizeGroup(ctx context.Context, name string, n int) error {
	var acts cplane.Actions
	var rerr error
	m.store.Update(func(s *cplane.State) {
		des, err := cplane.ReconcileResize(s, name, n)
		if err != nil {
			rerr = fmt.Errorf("manager: %w", err)
			return
		}
		acts = cplane.Diff(s, des)
		cplane.Commit(s, des)
	})
	if rerr != nil {
		return rerr
	}
	return m.actuate(ctx, acts, actuateOpts{sync: true})
}

// --- envelope.Manager implementation (the Table 1 API) ---

// replicaOrdinal parses the numeric suffix of a replica id ("kv/3" -> 3).
func replicaOrdinal(id string) (int, bool) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// RegisterReplica implements envelope.Manager. During normal operation it
// records a fresh replica as ready and re-broadcasts its group's routing.
// During recovery (a rebuilt manager re-learning a running fleet) it
// adopts the replica's observed state wholesale: unknown groups are
// created, hosting claims relocate components, applied routing epochs
// floor the global epoch counter so new broadcasts are never fenced as
// stale.
func (m *Manager) RegisterReplica(e *envelope.Envelope, r pipe.RegisterReplica) error {
	m.mu.Lock()
	m.envelopes[e] = true
	m.envs[e.ID] = e
	m.pids[e.ID] = r.Pid
	recovering := m.recovering > 0
	m.mu.Unlock()

	found := false
	m.store.Update(func(s *cplane.State) {
		g := s.Groups[e.Group]
		if g == nil {
			if !recovering {
				return
			}
			// A group the config does not know (e.g. created by a past
			// re-placement move): recreate it from the replica's claim.
			if err := m.addGroupTo(s, e.Group, nil); err != nil {
				return
			}
			g = s.Groups[e.Group]
		}
		found = true
		rep := g.Replicas[e.ID]
		if rep == nil {
			// A replica the manager did not start (the main driver, or any
			// replica during recovery): adopt it.
			rep = &cplane.Replica{ID: e.ID, Healthy: true}
			g.Replicas[e.ID] = rep
		}
		rep.Addr = r.Addr
		rep.Ready = true
		rep.Healthy = true
		m.status.Touch(e.ID, m.clk.Now())
		if r.Epoch > s.RouteEpoch {
			s.RouteEpoch = r.Epoch
		}
		for _, v := range r.Routing {
			if v > s.RouteEpoch {
				s.RouteEpoch = v
			}
		}
		if n, ok := replicaOrdinal(e.ID); ok && n >= g.NextID {
			g.NextID = n + 1
		}
		if recovering {
			// Observed hosting wins over the config-derived default: if the
			// replica hosts a component mapped elsewhere, the component was
			// moved before the rebuild — relocate it.
			for _, c := range r.Hosted {
				if cur, ok := s.CompGroup[c]; ok && cur != e.Group {
					_ = s.Relocate(c, e.Group)
				}
			}
		}
	})
	if !found {
		return fmt.Errorf("manager: replica of unknown group %q", e.Group)
	}
	// Record the applied epochs only once the floored RouteEpoch above is
	// published (cplane.CheckApplied).
	for c, v := range r.Routing {
		m.status.NoteApplied(e.ID, c, v)
	}

	m.cfg.Logger.Info("replica registered", "group", e.Group, "replica", e.ID, "addr", r.Addr)
	if recovering {
		m.noteReregistered(e.ID)
		return nil
	}
	return m.actuate(m.ctx, cplane.Actions{Push: []string{e.Group}}, actuateOpts{})
}

// adoptEnvelope ensures e receives routing broadcasts. Proclets talk to
// the manager (ComponentsToHost, StartComponent) before they register, so
// the manager must track their envelopes from first contact.
func (m *Manager) adoptEnvelope(e *envelope.Envelope) {
	m.mu.Lock()
	m.envelopes[e] = true
	m.mu.Unlock()
}

// ComponentsToHost implements envelope.Manager.
func (m *Manager) ComponentsToHost(e *envelope.Envelope) ([]string, error) {
	m.adoptEnvelope(e)
	s := m.store.Snapshot()
	g := s.Groups[e.Group]
	if g == nil {
		return nil, fmt.Errorf("manager: unknown group %q", e.Group)
	}
	return append([]string(nil), g.Components...), nil
}

// StartComponent implements envelope.Manager.
func (m *Manager) StartComponent(e *envelope.Envelope, component string, routed bool) error {
	m.adoptEnvelope(e)
	var gname string
	found := false
	var acts cplane.Actions
	m.store.Update(func(s *cplane.State) {
		gn, ok := s.CompGroup[component]
		if !ok {
			return
		}
		found = true
		gname = gn
		g := s.Groups[gn]
		if len(g.Replicas)+g.Starting == 0 {
			need := m.scaler(gn).Config().MinReplicas
			g.Starting += need
			acts.Start = []cplane.StartAction{{Group: gn, N: need}}
		}
	})
	if !found {
		return fmt.Errorf("manager: unknown component %q", component)
	}
	// Push current routing info (possibly empty) so the requester learns
	// about already-running replicas immediately. The push is a broadcast
	// (e was adopted above): every epoch goes to every envelope, so no
	// proclet is left behind the newest stamped push.
	acts.Push = []string{gname}
	_ = m.actuate(m.ctx, acts, actuateOpts{})
	return nil
}

// LoadReport implements envelope.Manager. The rate and report time update
// the status table in place; the State changes only when a report flips the
// replica's health, which routing depends on.
func (m *Manager) LoadReport(e *envelope.Envelope, lr pipe.LoadReport) {
	if m.status.Report(e.ID, lr.CallsPerSec, m.clk.Now()) {
		if rep := m.store.Snapshot().Replica(e.Group, e.ID); rep != nil && rep.Healthy != lr.Healthy {
			m.store.Update(func(s *cplane.State) {
				if rep := s.Replica(e.Group, e.ID); rep != nil {
					rep.Healthy = lr.Healthy
				}
			})
		}
	}
	m.mu.Lock()
	m.metrics[e.ID] = lr.Metrics
	// One proclet per process ships the process registry each interval;
	// the other reports carry none and must not erase it.
	if pid, ok := m.pids[e.ID]; ok && lr.Process != nil {
		m.process[pid] = lr.Process
	}
	m.mu.Unlock()
}

// dropPidLocked forgets a departed replica's pid, and its process's
// snapshot once no registered replica lives in that process. Caller holds
// m.mu.
func (m *Manager) dropPidLocked(id string) {
	pid, ok := m.pids[id]
	if !ok {
		return
	}
	delete(m.pids, id)
	for _, p := range m.pids {
		if p == pid {
			return
		}
	}
	delete(m.process, pid)
}

// Logs implements envelope.Manager.
func (m *Manager) Logs(entries []logging.Entry) { m.logs.Add(entries) }

// Traces implements envelope.Manager.
func (m *Manager) Traces(spans []tracing.Span) {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	m.spans.Add(spans...)
}

// GraphEdges implements envelope.Manager.
func (m *Manager) GraphEdges(edges []callgraph.Edge) { m.graph.Merge(edges) }

// ReplicaExited implements envelope.Manager. The restart decision is the
// pure cplane.ReconcileRestart policy; the actuator relaunches after a
// clock-driven backoff (paper §3.1: "component replicas may fail and get
// restarted").
func (m *Manager) ReplicaExited(e *envelope.Envelope, exitErr error) {
	m.mu.Lock()
	delete(m.envelopes, e)
	delete(m.envs, e.ID)
	delete(m.metrics, e.ID)
	m.dropPidLocked(e.ID)
	stopped := m.stopped
	m.mu.Unlock()

	found := false
	var acts cplane.Actions
	m.store.Update(func(s *cplane.State) {
		g := s.Groups[e.Group]
		if g == nil {
			return
		}
		found = true
		rep := g.Replicas[e.ID]
		delete(g.Replicas, e.ID)
		m.status.Remove(e.ID)
		deliberate := stopped || (rep != nil && rep.Stopping) || exitErr == nil
		if des := cplane.ReconcileRestart(s, e.Group, deliberate, m.cfg.MaxRestarts); des != nil {
			acts = cplane.Diff(s, des)
			cplane.Commit(s, des)
		}
		acts.Push = []string{e.Group} // topology shrank either way
	})
	if !found {
		return
	}
	for i := range acts.Start {
		acts.Start[i].Backoff = restartBackoff
	}

	if exitErr != nil {
		m.cfg.Logger.Warn("replica exited", "group", e.Group, "replica", e.ID, "err", exitErr.Error())
	}
	_ = m.actuate(m.ctx, acts, actuateOpts{})
}

// RouteEpoch returns the current global routing epoch (the newest value
// stamped on any routing broadcast or re-placement step).
func (m *Manager) RouteEpoch() uint64 {
	return m.store.Snapshot().RouteEpoch
}

// LastRouting returns the newest routing epoch stamped for a component and
// the replica addresses it carried. Harnesses use it to wait until every
// proclet's applied RoutingVersion catches up after a topology change.
func (m *Manager) LastRouting(component string) (version uint64, addrs []string) {
	p := m.store.Snapshot().LastPush[component]
	return p.Version, append([]string(nil), p.Addrs...)
}

// --- scaling and health ---

func (m *Manager) scaleLoop() {
	ticker := time.NewTicker(m.cfg.ScaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.scaleOnce(time.Now())
		case <-m.ctx.Done():
			return
		}
	}
}

// scaleOnce runs one reconcile pass of the autoscale + health loop: the
// pure reconciler proposes a desired state using the per-group autoscaler
// as its oracle, and the actuator applies the diff.
func (m *Manager) scaleOnce(now time.Time) {
	oracle := func(group string, current int, load float64, at time.Time) int {
		return m.scaler(group).Desired(current, load, at)
	}
	var acts cplane.Actions
	m.store.UpdateIf(func(s *cplane.State) bool {
		des := cplane.ReconcileScale(s, m.status, oracle, now, replicaStaleAfter)
		acts = cplane.Diff(s, des)
		if acts.Empty() && sameTargets(s, des) {
			return false // a pass that decides nothing new is not a new version
		}
		cplane.Commit(s, des)
		return true
	})
	if acts.Empty() {
		return
	}
	for _, a := range acts.Start {
		m.cfg.Logger.Info("scaling up", "group", a.Group, "new", fmt.Sprint(a.N))
	}
	stops := map[string]int{}
	for _, a := range acts.Stop {
		stops[a.Group]++
	}
	for g, n := range stops {
		m.cfg.Logger.Info("scaling down", "group", g, "stopping", fmt.Sprint(n))
	}
	_ = m.actuate(m.ctx, acts, actuateOpts{})
}

// sameTargets reports whether every group of des has the Target it has in
// obs: the one field ReconcileScale sets that Diff does not turn into an
// action.
func sameTargets(obs, des *cplane.State) bool {
	for name, g := range des.Groups {
		if og := obs.Groups[name]; og == nil || og.Target != g.Target {
			return false
		}
	}
	return true
}

// GroupStatus describes one group for status reporting.
type GroupStatus struct {
	Name       string
	Components []string
	Replicas   []ReplicaStatus
}

// ReplicaStatus describes one replica.
type ReplicaStatus struct {
	ID      string
	Addr    string
	Healthy bool
	Rate    float64
	Pid     int
}

// Status returns a snapshot of all groups and replicas, sorted by name.
func (m *Manager) Status() []GroupStatus {
	s := m.store.Snapshot()
	out := make([]GroupStatus, 0, len(s.Groups))
	for _, name := range s.SortedGroupNames() {
		g := s.Groups[name]
		gs := GroupStatus{Name: name, Components: append([]string(nil), g.Components...)}
		ids := make([]string, 0, len(g.Replicas))
		for id := range g.Replicas {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			r := g.Replicas[id]
			rate, _ := m.status.Load(id)
			gs.Replicas = append(gs.Replicas, ReplicaStatus{
				ID:      r.ID,
				Addr:    r.Addr,
				Healthy: r.Healthy,
				Rate:    rate,
				Pid:     m.pidOf(id),
			})
		}
		out = append(out, gs)
	}
	return out
}

func (m *Manager) pidOf(replicaID string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.envs[replicaID]; e != nil {
		return e.Pid()
	}
	return 0
}

// ReplicaCount returns the number of live replicas of a group.
func (m *Manager) ReplicaCount(group string) int {
	g := m.store.Snapshot().Groups[group]
	if g == nil {
		return 0
	}
	return len(g.Replicas)
}

// Stop shuts down every replica and the manager itself.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	envs := make([]*envelope.Envelope, 0, len(m.envelopes))
	for e := range m.envelopes {
		envs = append(envs, e)
	}
	m.mu.Unlock()

	m.cancel()
	var wg sync.WaitGroup
	for _, e := range envs {
		wg.Add(1)
		go func(e *envelope.Envelope) {
			defer wg.Done()
			e.Stop(3 * time.Second)
		}(e)
	}
	wg.Wait()
}

// --- manager rebuild (recovery from re-registration) ---

// Detach stops the manager's control loops and marks it stopped WITHOUT
// stopping its replicas. It is the teardown half of a simulated manager
// crash: the fleet keeps serving, and a successor manager adopts the
// orphaned envelopes with Adopt.
func (m *Manager) Detach() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	m.cancel()
}

// Envelopes returns every envelope the manager currently tracks.
func (m *Manager) Envelopes() []*envelope.Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*envelope.Envelope, 0, len(m.envelopes))
	for e := range m.envelopes {
		out = append(out, e)
	}
	return out
}

// Adopt hands a freshly built manager the envelopes of an already-running
// fleet (from a predecessor's Envelopes). The manager enters recovery: it
// expects one re-registration per envelope (the deployer sends
// envelope.Reregister after repointing them here) and defers routing
// broadcasts until the fleet has re-registered, then rebroadcasts every
// group at epochs above the recovered floor. WaitRecovered blocks until
// that happens.
func (m *Manager) Adopt(envs []*envelope.Envelope) {
	m.mu.Lock()
	for _, e := range envs {
		m.envelopes[e] = true
		if e.ID != "" {
			m.envs[e.ID] = e
		}
	}
	m.recovering = len(envs)
	m.reregistered = map[string]bool{}
	m.recovered = make(chan struct{})
	m.recoveryDone = false
	m.mu.Unlock()
	m.recordAction("recover", fmt.Sprintf("adopted %d envelopes, awaiting re-registration", len(envs)), 0)
	if len(envs) == 0 {
		m.finishRecovery()
	}
}

func (m *Manager) noteReregistered(id string) {
	m.mu.Lock()
	if m.recovering <= 0 || m.reregistered[id] {
		m.mu.Unlock()
		return
	}
	m.reregistered[id] = true
	m.recovering--
	done := m.recovering == 0
	m.mu.Unlock()
	if done {
		m.finishRecovery()
	}
}

// finishRecovery ends recovery (idempotently) and rebroadcasts every
// group's routing at fresh epochs above the recovered floor, rebuilding
// every proclet's routing view under the new manager.
func (m *Manager) finishRecovery() {
	m.mu.Lock()
	if m.recoveryDone || m.recovered == nil {
		m.mu.Unlock()
		return
	}
	m.recoveryDone = true
	m.recovering = 0
	close(m.recovered)
	m.mu.Unlock()

	s := m.store.Snapshot()
	var groups []string
	for _, name := range s.SortedGroupNames() {
		if len(s.Groups[name].Components) > 0 {
			groups = append(groups, name)
		}
	}
	m.recordAction("recover", fmt.Sprintf("recovery complete, rebroadcasting %d groups", len(groups)), s.RouteEpoch)
	_ = m.actuate(m.ctx, cplane.Actions{Push: groups}, actuateOpts{})
}

// WaitRecovered blocks until recovery completes. If ctx expires first,
// recovery is force-finished with whatever has re-registered (missing
// replicas re-register later through the normal path).
func (m *Manager) WaitRecovered(ctx context.Context) error {
	m.mu.Lock()
	ch := m.recovered
	m.mu.Unlock()
	if ch == nil {
		return nil // never adopted anything
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		m.finishRecovery()
		return ctx.Err()
	}
}
