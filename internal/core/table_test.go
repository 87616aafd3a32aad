package core

import (
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/rpc"
)

// A dialLog is an rpc client Dialer that records every connection it
// makes, so a test can count dials per address and find each connection's
// reader — a client's read loop — in a stack dump. While refuse is set it
// fails every dial.
type dialLog struct {
	refuse   atomic.Bool
	attempts atomic.Int64

	mu    sync.Mutex
	conns map[string][]*loggedConn
}

// A loggedConn wraps one dialed connection and records the id of the
// goroutine that first reads it. Goroutine ids are never reused, so that
// id is in a stack dump exactly as long as the reader is alive.
type loggedConn struct {
	net.Conn
	once   sync.Once
	reader atomic.Value // string
}

func (c *loggedConn) Read(b []byte) (int, error) {
	c.once.Do(func() {
		buf := make([]byte, 64)
		c.reader.Store(goroutineID(string(buf[:runtime.Stack(buf, false)])))
	})
	return c.Conn.Read(b)
}

// goroutineID returns the id in one goroutine's stack trace, whose header
// reads "goroutine <id> [<state>]:".
func goroutineID(trace string) string { return strings.Fields(trace)[1] }

func newDialLog() *dialLog { return &dialLog{conns: map[string][]*loggedConn{}} }

func (d *dialLog) dial(ctx context.Context, addr string) (net.Conn, error) {
	d.attempts.Add(1)
	if d.refuse.Load() {
		return nil, errors.New("dial refused")
	}
	var nd net.Dialer
	nc, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &loggedConn{Conn: nc}
	d.mu.Lock()
	d.conns[addr] = append(d.conns[addr], c)
	d.mu.Unlock()
	return c, nil
}

// dials returns how many connections were made to addr.
func (d *dialLog) dials(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns[addr])
}

// reading returns how many of addr's connections still have their reader
// goroutine, from a dump of every goroutine's stack. Looking these up
// rather than counting runtime.NumGoroutine keeps other tests' goroutines
// out of it.
func (d *dialLog) reading(addr string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	alive := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		alive[goroutineID(g)] = true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns[addr] {
		if id, ok := c.reader.Load().(string); ok && alive[id] {
			n++
		}
	}
	return n
}

// report feeds one leg's outcome for addr through the conn's outcome path,
// as a completed call would.
func report(c *DataPlaneConn, addr string, failure bool) {
	var err error
	if failure {
		err = &rpc.TransportError{Addr: addr, Err: errors.New("injected failure")}
	}
	r := c.lookup(addr)
	r.refs.Add(1) // the leg's reference, which outcome drops
	c.outcome(r, time.Now(), nil, err)
}

// healthy runs the conn's health check on addr's table entry.
func healthy(c *DataPlaneConn, addr string) bool { return c.healthy(c.lookup(addr)) }

// picked returns the address of the entry pick chooses for m, or "" when
// it finds none, and drops the leg reference pick takes.
func picked(c *DataPlaneConn, m *callMeta, untried bool) string {
	r := c.pick(m, untried)
	if r == nil {
		return ""
	}
	defer r.release()
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, e := range c.replicas {
		if e == r {
			return addr
		}
	}
	return ""
}

// tableOf returns the addresses conn's replica table holds.
func tableOf(conn *DataPlaneConn) []string {
	_, addrs := conn.Applied()
	return addrs
}

// invoke makes one empty call on conn.
func invoke(conn *DataPlaneConn, component string) error {
	var args, res emptyMsg
	return conn.Invoke(context.Background(), component, emptySpec(false), &args, &res, 0, false)
}

func TestUpdateRoutingFencesStalePushes(t *testing.T) {
	// A push older than the applied one must not roll the route back; an
	// equal epoch applies.
	conn := NewDataPlaneConn("fence_test/C", ConnOptions{})
	defer conn.Close()
	sharded := &callMeta{Shard: routing.KeyHash("k"), HasShard: true}
	check := func(when, want string, epoch uint64) {
		t.Helper()
		if addr := picked(conn, sharded, false); addr != want {
			t.Fatalf("%s: pick = %q, want %q", when, addr, want)
		}
		if v, addrs := conn.Applied(); v != epoch || !slices.Equal(addrs, []string{want}) {
			t.Fatalf("%s: applied epoch %d with table %v, want %d with [%s]", when, v, addrs, epoch, want)
		}
	}

	newer := routing.EqualSlices(5, []string{"b:1"}, 1)
	conn.UpdateRouting(5, []string{"b:1"}, &newer)
	older := routing.EqualSlices(3, []string{"a:1"}, 1)
	conn.UpdateRouting(3, []string{"a:1"}, &older)
	check("after a stale push", "b:1", 5)

	same := routing.EqualSlices(5, []string{"c:1"}, 1)
	conn.UpdateRouting(5, []string{"c:1"}, &same)
	check("after a same-epoch push", "c:1", 5)
}

func TestReplacedReplicaLeavesOneEntry(t *testing.T) {
	// Each restart of the component's only replica listens on a new port.
	// After five replacements the conn holds one entry — one client, one
	// breaker — and no read loop of the replaced replicas' clients is left.
	const component = "replace_test/C"
	d := newDialLog()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Client: rpc.ClientOptions{Dialer: d.dial}})
	defer conn.Close()
	var addrs []string
	for epoch := uint64(1); epoch <= 6; epoch++ {
		_, addr, _ := startCounting(t, component, rpc.ServerOptions{})
		addrs = append(addrs, addr)
		conn.UpdateRouting(epoch, []string{addr}, nil)
		if err := invoke(conn, component); err != nil {
			t.Fatalf("call at epoch %d: %v", epoch, err)
		}
	}
	last := addrs[len(addrs)-1]
	if got := tableOf(conn); !slices.Equal(got, []string{last}) {
		t.Fatalf("table holds %v after 5 replacements, want only [%s]", got, last)
	}
	for _, addr := range addrs[:len(addrs)-1] {
		eventually(t, "the replaced replica's client to close", func() bool { return d.reading(addr) == 0 })
	}
	if d.reading(last) == 0 {
		t.Error("the live replica's client has no read loop")
	}
}

func TestPrunedReplicaFinishesInFlightLeg(t *testing.T) {
	// A push that removes a replica lets the leg in flight on it finish;
	// its client closes afterwards, and no later call or probe reaches it.
	const component = "prune_test/C"
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	srvA := rpc.NewServer()
	var callsA atomic.Int64
	registerEmpty(srvA, component+".M", func() {
		callsA.Add(1)
		entered <- struct{}{}
		<-release
	})
	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvA.Close() })
	t.Cleanup(releaseOnce) // runs before the server closes
	_, addrB, callsB := startCounting(t, component, rpc.ServerOptions{})

	clk := clock.NewFake()
	d := newDialLog()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk, Client: rpc.ClientOptions{Dialer: d.dial}})
	defer conn.Close()
	conn.UpdateRouting(1, []string{addrA}, nil)

	done := invokeAsync(conn, component)
	<-entered
	// Trip A's breaker, so a health check past the cooldown would probe A.
	for i := 0; i < 8; i++ {
		report(conn, addrA, true)
	}
	if got := conn.BreakerState(addrA); got != rpc.BreakerOpen {
		t.Fatalf("A's breaker is %v after 8 failures, want open", got)
	}

	conn.UpdateRouting(2, []string{addrB}, nil)
	if got := tableOf(conn); !slices.Equal(got, []string{addrB}) {
		t.Fatalf("table holds %v after the push, want [%s]", got, addrB)
	}
	// The client stays open under its leg in flight.
	eventually(t, "the pruned replica's read loop", func() bool { return d.reading(addrA) == 1 })
	clk.Advance(time.Second) // A's cooldown elapses
	probes := metrics.Default.Counter("rpc.breaker.probes")
	before := probes.Value()
	if err := invoke(conn, component); err != nil {
		t.Fatalf("call after the push: %v", err)
	}
	if got := probes.Value() - before; got != 0 {
		t.Errorf("a call after the push launched %d probes; nothing may probe the pruned replica", got)
	}

	releaseOnce()
	if err := <-done; err != nil {
		t.Fatalf("call in flight on the pruned replica = %v, want success", err)
	}
	eventually(t, "the pruned replica's client to close", func() bool { return d.reading(addrA) == 0 })

	for i := 0; i < 10; i++ {
		if err := invoke(conn, component); err != nil {
			t.Fatalf("call after the push: %v", err)
		}
	}
	if got := callsB.Load(); got != 11 {
		t.Errorf("replica B executed %d calls, want 11", got)
	}
	if got := callsA.Load(); got != 1 {
		t.Errorf("pruned replica A executed %d calls, want only the one in flight", got)
	}
	if got := d.dials(addrA); got != 1 {
		t.Errorf("%d connections made to the pruned replica, want the first one only", got)
	}
}

func TestClosedConnLeavesNoReadLoop(t *testing.T) {
	// Close ends every client's read loop, and neither a call nor a push
	// after Close makes a client again.
	const component = "close_test/C"
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	d := newDialLog()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Client: rpc.ClientOptions{Dialer: d.dial, NumConns: 2}})
	conn.UpdateRouting(1, []string{addr}, nil)
	for i := 0; i < 4; i++ {
		if err := invoke(conn, component); err != nil {
			t.Fatal(err)
		}
	}
	if d.reading(addr) == 0 {
		t.Fatal("no read loop found for the conn's client")
	}
	dialed := d.dials(addr)

	conn.Close()
	eventually(t, "the closed conn's read loops to exit", func() bool { return d.reading(addr) == 0 })
	conn.UpdateRouting(2, []string{addr}, nil)
	if got := tableOf(conn); len(got) != 0 {
		t.Errorf("closed conn's table holds %v after a push, want nothing", got)
	}
	if err := invoke(conn, component); err == nil {
		t.Error("call on a closed conn succeeded")
	}
	if got := d.dials(addr); got != dialed {
		t.Errorf("%d connections made after Close", got-dialed)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("replica executed %d calls, want the 4 made before Close", got)
	}
}

func TestConnBreakerProbeRecovery(t *testing.T) {
	// An open breaker quarantines its replica until a half-open probe —
	// a Ping through the entry's client — succeeds: exactly one probe per
	// cooldown, never a real request.
	const component = "probe_test/C"
	_, addr, calls := startCounting(t, component, rpc.ServerOptions{})
	clk := clock.NewFake()
	d := newDialLog()
	d.refuse.Store(true) // every probe's dial fails until cleared
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk, Client: rpc.ClientOptions{Dialer: d.dial}})
	defer conn.Close()
	conn.UpdateRouting(1, []string{addr}, nil)

	if !healthy(conn, addr) {
		t.Fatal("fresh replica reported unhealthy")
	}
	for i := 0; i < 8; i++ {
		report(conn, addr, true)
	}
	if got := conn.BreakerState(addr); got != rpc.BreakerOpen {
		t.Fatalf("state after 8/8 failures = %v, want open", got)
	}
	if healthy(conn, addr) {
		t.Fatal("open breaker reported healthy")
	}

	// While the probe keeps failing the replica stays quarantined: each
	// cooldown admits exactly one probe, and the breaker reopens.
	for round := int64(1); round <= 3; round++ {
		clk.Advance(time.Second)
		if healthy(conn, addr) {
			t.Fatal("replica reported healthy while its probe fails")
		}
		if healthy(conn, addr) {
			t.Fatal("replica reported healthy while its probe is in flight")
		}
		eventually(t, "the probe's verdict", func() bool {
			return d.attempts.Load() == round && conn.BreakerState(addr) == rpc.BreakerOpen
		})
	}

	d.refuse.Store(false)
	clk.Advance(time.Second)
	if healthy(conn, addr) {
		t.Fatal("replica reported healthy before the probe's verdict")
	}
	eventually(t, "the breaker to close", func() bool { return conn.BreakerState(addr) == rpc.BreakerClosed })
	if !healthy(conn, addr) {
		t.Fatal("closed breaker reported unhealthy")
	}
	if got := d.attempts.Load(); got != 4 {
		t.Errorf("%d probes over 4 cooldowns, want one each", got)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("replica executed %d calls; only pings may probe it", got)
	}
}

func TestConnBreakerCountsTransitions(t *testing.T) {
	// rpc.breaker.opened and rpc.breaker.closed move once per trip and
	// once per recovery, never for an outcome that leaves the state where
	// it was.
	const component = "transitions_test/C"
	_, addr, _ := startCounting(t, component, rpc.ServerOptions{})
	clk := clock.NewFake()
	conn := NewDataPlaneConn(component, ConnOptions{DisableHedging: true, Clock: clk})
	defer conn.Close()
	conn.UpdateRouting(1, []string{addr}, nil)
	openedC := metrics.Default.Counter("rpc.breaker.opened")
	closedC := metrics.Default.Counter("rpc.breaker.closed")
	opened, closed := openedC.Value(), closedC.Value()
	check := func(when string, wantOpened, wantClosed uint64) {
		t.Helper()
		if got := openedC.Value() - opened; got != wantOpened {
			t.Errorf("%s: opened counted %d, want %d", when, got, wantOpened)
		}
		if got := closedC.Value() - closed; got != wantClosed {
			t.Errorf("%s: closed counted %d, want %d", when, got, wantClosed)
		}
	}

	report(conn, addr, false)
	check("a success while closed", 0, 0)
	for i := 0; i < 8; i++ {
		report(conn, addr, true)
	}
	check("the trip", 1, 0)
	report(conn, addr, true)
	report(conn, addr, false)
	check("stragglers while open", 1, 0)

	clk.Advance(time.Second)
	healthy(conn, addr) // launches the probe, which succeeds
	eventually(t, "the recovery", func() bool { return closedC.Value() != closed })
	check("the recovery", 1, 1)
}

func TestPushesRaceLegs(t *testing.T) {
	// Callers keep calling while pushes swap the replica set. Every call
	// succeeds, and once the last push is in and the calls are done, the
	// table holds its one entry with only the table's reference, and the
	// removed replica's client has closed.
	const component = "race_test/C"
	const callers, callsEach = 8, 200
	_, addrA, _ := startCounting(t, component, rpc.ServerOptions{})
	_, addrB, _ := startCounting(t, component, rpc.ServerOptions{})
	d := newDialLog()
	conn := NewDataPlaneConn(component, ConnOptions{HedgeAfter: time.Millisecond, Client: rpc.ClientOptions{Dialer: d.dial}})
	defer conn.Close()
	sets := [][]string{{addrA, addrB}, {addrA}, {addrB}}
	conn.UpdateRouting(1, sets[0], nil)

	stop := make(chan struct{})
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		for epoch := uint64(2); ; epoch++ {
			select {
			case <-stop:
				conn.UpdateRouting(epoch, []string{addrB}, nil)
				return
			case <-time.After(100 * time.Microsecond):
				conn.UpdateRouting(epoch, sets[epoch%3], nil)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < callsEach; j++ {
				if err := invoke(conn, component); err != nil {
					t.Errorf("call during pushes: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-pushed

	if got := tableOf(conn); !slices.Equal(got, []string{addrB}) {
		t.Fatalf("table holds %v after the last push, want [%s]", got, addrB)
	}
	if refs := conn.lookup(addrB).refs.Load(); refs != 1 {
		t.Errorf("live entry holds %d references with no call in flight, want the table's 1", refs)
	}
	eventually(t, "the removed replica's clients to close", func() bool { return d.reading(addrA) == 0 })
}
