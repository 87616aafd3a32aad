// Package simcloud is a discrete-event simulator of a cloud deployment:
// services running on autoscaled pods, CPU-consuming request processing,
// and per-RPC serialization and network costs. It is this repository's
// substitute for the GKE testbed in the paper's evaluation (§6.1), used to
// regenerate Table 2 at the paper's full 10,000 QPS scale — something a
// single development machine cannot serve natively.
//
// The simulator is calibrated, not hand-waved: the per-call CPU costs for
// serialization, transport, and business logic are taken from this
// repository's own measured microbenchmarks of the real codecs and
// transports (see bench_test.go and EXPERIMENTS.md), and the workload's
// call structure mirrors the boutique port exactly. What the simulation
// adds is scale: thousands of pods' worth of virtual CPU and an HPA-style
// autoscaler reacting to utilization.
package simcloud

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// event is one scheduled occurrence in virtual time.
type event struct {
	at  float64 // virtual seconds
	seq uint64  // tiebreaker for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the discrete-event core.
type Engine struct {
	now float64
	seq uint64
	pq  eventHeap
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute virtual time t.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.pq, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn after d virtual seconds.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queue empties or virtual time reaches
// horizon. Events scheduled past the horizon stay queued, so Run may be
// called repeatedly with growing horizons.
func (e *Engine) Run(horizon float64) {
	for e.pq.Len() > 0 {
		if e.pq[0].at > horizon {
			e.now = horizon
			return
		}
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		ev.fn()
	}
}

// job is one unit of CPU work queued at a pod.
type job struct {
	cpu  float64 // seconds of CPU required
	done func()  // invoked at completion
}

// pod is one replica of a service: `cores` workers draining a FIFO queue.
type pod struct {
	svc     *Service
	cores   int
	busy    int
	queue   []*job
	started bool // pods take time to boot

	busyCPU float64 // accumulated CPU-seconds, for utilization accounting
}

func (p *pod) enqueue(eng *Engine, j *job) {
	if p.busy < p.cores && p.started {
		p.run(eng, j)
		return
	}
	p.queue = append(p.queue, j)
}

func (p *pod) run(eng *Engine, j *job) {
	p.busy++
	p.busyCPU += j.cpu
	eng.After(j.cpu, func() {
		p.busy--
		if len(p.queue) > 0 && p.started {
			next := p.queue[0]
			p.queue = p.queue[1:]
			p.run(eng, next)
		}
		j.done()
	})
}

func (p *pod) boot(eng *Engine) {
	p.started = true
	for p.busy < p.cores && len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		p.run(eng, next)
	}
}

// Service is one autoscaled deployment (a component group).
type Service struct {
	Name         string
	CoresPerPod  int
	MinPods      int
	MaxPods      int
	pods         []*pod
	rr           int
	pendingBoots int

	// Pod-seconds provisioned, integrated over time (for avg cores).
	podSeconds   float64
	lastAccounts float64

	// CPU accounting window for the autoscaler. retiredBusy preserves the
	// busy-CPU history of pods that were scaled away, keeping busyCPU()
	// monotone.
	lastBusy    float64
	retiredBusy float64
}

func (s *Service) accountTo(t float64) {
	s.podSeconds += float64(len(s.pods)) * (t - s.lastAccounts)
	s.lastAccounts = t
}

// dispatch queues a job on the least-loaded pod.
func (s *Service) dispatch(eng *Engine, j *job) {
	if len(s.pods) == 0 {
		// Nothing running yet: queue on a future pod by retrying shortly.
		eng.After(0.01, func() { s.dispatch(eng, j) })
		return
	}
	best := s.pods[0]
	bestLoad := math.MaxInt
	for i := 0; i < len(s.pods); i++ {
		p := s.pods[(i+s.rr)%len(s.pods)]
		load := p.busy + len(p.queue)
		if !p.started {
			load += 1 << 20
		}
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	s.rr++
	best.enqueue(eng, j)
}

func (s *Service) busyCPU() float64 {
	total := s.retiredBusy
	for _, p := range s.pods {
		total += p.busyCPU
	}
	return total
}

// Cluster is the simulated deployment.
type Cluster struct {
	Eng      *Engine
	services map[string]*Service
	cfg      ClusterConfig
	rng      *rand.Rand
}

// ClusterConfig parameterizes the platform.
type ClusterConfig struct {
	// PodStartupDelay is the virtual seconds between a scale-up decision
	// and the new pod serving (HPA reaction + container start).
	PodStartupDelay float64
	// ScaleInterval is the autoscaler evaluation period (HPA default 15s).
	ScaleInterval float64
	// TargetUtilization is the HPA CPU target (default 0.65).
	TargetUtilization float64
	// Seed drives workload randomness.
	Seed uint64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.PodStartupDelay <= 0 {
		c.PodStartupDelay = 5
	}
	if c.ScaleInterval <= 0 {
		c.ScaleInterval = 5
	}
	if c.TargetUtilization <= 0 {
		c.TargetUtilization = 0.65
	}
	return c
}

// NewCluster returns an empty cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	return &Cluster{
		Eng:      &Engine{},
		services: map[string]*Service{},
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0xda3e39cb94b95bdb)),
	}
}

// AddService registers a service with initial minimum pods (booted
// immediately at time zero).
func (c *Cluster) AddService(name string, coresPerPod, minPods, maxPods int) *Service {
	if coresPerPod <= 0 {
		coresPerPod = 1
	}
	if minPods <= 0 {
		minPods = 1
	}
	if maxPods < minPods {
		maxPods = minPods
	}
	s := &Service{Name: name, CoresPerPod: coresPerPod, MinPods: minPods, MaxPods: maxPods}
	for i := 0; i < minPods; i++ {
		p := &pod{svc: s, cores: coresPerPod, started: true}
		s.pods = append(s.pods, p)
	}
	c.services[name] = s
	return s
}

// Exec queues cpu seconds of work on a service and calls done when it
// completes (after queueing and execution).
func (c *Cluster) Exec(service string, cpu float64, done func()) {
	s := c.services[service]
	if s == nil {
		panic(fmt.Sprintf("simcloud: unknown service %q", service))
	}
	s.dispatch(c.Eng, &job{cpu: cpu, done: done})
}

// StartAutoscaler begins periodic HPA-style evaluations.
func (c *Cluster) StartAutoscaler() {
	var tick func()
	tick = func() {
		c.scaleOnce()
		c.Eng.After(c.cfg.ScaleInterval, tick)
	}
	c.Eng.After(c.cfg.ScaleInterval, tick)
}

func (c *Cluster) scaleOnce() {
	now := c.Eng.Now()
	names := make([]string, 0, len(c.services))
	for n := range c.services {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := c.services[n]
		s.accountTo(now)
		busy := s.busyCPU()
		window := c.cfg.ScaleInterval
		used := (busy - s.lastBusy) / window // CPU-seconds per second = cores in use
		s.lastBusy = busy

		capacity := float64(len(s.pods) * s.CoresPerPod)
		if capacity == 0 {
			continue
		}
		util := used / capacity
		desired := int(math.Ceil(float64(len(s.pods)+s.pendingBoots) * util / c.cfg.TargetUtilization))
		if desired < s.MinPods {
			desired = s.MinPods
		}
		if desired > s.MaxPods {
			desired = s.MaxPods
		}
		current := len(s.pods) + s.pendingBoots
		if desired > current {
			for i := current; i < desired; i++ {
				s.pendingBoots++
				p := &pod{svc: s, cores: s.CoresPerPod}
				c.Eng.After(c.cfg.PodStartupDelay, func() {
					s.accountTo(c.Eng.Now())
					s.pods = append(s.pods, p)
					s.pendingBoots--
					p.boot(c.Eng)
				})
			}
		} else if desired < current && len(s.pods) > desired {
			// HPA scales down conservatively: one pod per interval.
			idx := -1
			for i, p := range s.pods {
				if p.busy == 0 && len(p.queue) == 0 {
					idx = i
					break
				}
			}
			if idx >= 0 && len(s.pods) > s.MinPods {
				s.accountTo(now)
				s.retiredBusy += s.pods[idx].busyCPU
				s.pods = append(s.pods[:idx], s.pods[idx+1:]...)
			}
		}
	}
}

// Pods returns the service's current pod count.
func (s *Service) Pods() int { return len(s.pods) }

// Report summarizes provisioned capacity at the end of a run.
type Report struct {
	// CoresByService is each service's average provisioned cores over the
	// measurement window.
	CoresByService map[string]float64
	// TotalCores is the sum over services.
	TotalCores float64
}

// snapshotCores integrates pod-seconds between two explicit marks; the
// harness calls MarkWindow at the start of the steady-state window and
// ReportWindow at the end.
type windowState struct {
	start      float64
	podSeconds map[string]float64
}

// MarkWindow begins a measurement window.
func (c *Cluster) MarkWindow() *windowState {
	now := c.Eng.Now()
	w := &windowState{start: now, podSeconds: map[string]float64{}}
	for n, s := range c.services {
		s.accountTo(now)
		w.podSeconds[n] = s.podSeconds
	}
	return w
}

// ReportWindow closes the window and reports average provisioned cores.
func (c *Cluster) ReportWindow(w *windowState) Report {
	now := c.Eng.Now()
	dur := now - w.start
	rep := Report{CoresByService: map[string]float64{}}
	if dur <= 0 {
		return rep
	}
	for n, s := range c.services {
		s.accountTo(now)
		cores := (s.podSeconds - w.podSeconds[n]) * float64(s.CoresPerPod) / dur
		rep.CoresByService[n] = cores
		rep.TotalCores += cores
	}
	return rep
}

// Rand returns the cluster's deterministic RNG.
func (c *Cluster) Rand() *rand.Rand { return c.rng }
