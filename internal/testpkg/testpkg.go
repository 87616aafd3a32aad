// Package testpkg defines small components used by integration, chaos, and
// deployment tests across the repository. Its weaver_gen.go is produced by
// cmd/weavergen, so these tests also exercise generated code end to end.
package testpkg

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/weaver"
)

// Echo returns its argument, tagged with the process id of the replica
// that served the call, so tests can observe placement and replication.
type Echo interface {
	Echo(ctx context.Context, msg string) (string, error)
	// WhoAmI returns the serving process id.
	WhoAmI(ctx context.Context) (int, error)
	// Mirror returns its argument, so the codecs generated for Kinds
	// cross the wire in both directions.
	Mirror(ctx context.Context, v Kinds) (Kinds, error)
}

// Kinds has a field of every kind the code generator serializes beyond
// the ones the boutique uses. FuzzGeneratedCodec checks the codecs
// generated for it against the reflective engine in internal/codec.
type Kinds struct {
	Names   map[string]int32
	ByID    map[int64]string
	Flags   map[bool]uint16
	Leaf    *Leaf
	Depth   **int8
	Arr     [3]int16
	Blob    []byte
	At      time.Time
	TTL     time.Duration
	Grid    [][]string
	Marks   []struct{} // elements that occupy no bytes
	Pair    [2]struct{}
	Label   Label
	Labels  []Label
	U       uint
	I       int
	Next    *Kinds
	Skipped string `weaver:"-"`
	hidden  int
}

// Leaf is a struct reached through a pointer.
type Leaf struct {
	A uint64
	B bool
	C []uint32
}

// Label is a named string.
type Label string

type echoImpl struct {
	weaver.Implements[Echo]
}

func (e *echoImpl) Echo(_ context.Context, msg string) (string, error) {
	return msg, nil
}

func (e *echoImpl) Mirror(_ context.Context, v Kinds) (Kinds, error) {
	return v, nil
}

func (e *echoImpl) WhoAmI(_ context.Context) (int, error) {
	return os.Getpid(), nil
}

// Counter is a routed, stateful component: every replica keeps its own
// counts, so affinity routing is observable as consistent counts per key.
type Counter interface {
	Add(ctx context.Context, key string, delta int64) (int64, error)
	Value(ctx context.Context, key string) (int64, error)
}

type counterRouter struct{}

func (counterRouter) Add(key string, delta int64) string { return key }
func (counterRouter) Value(key string) string            { return key }

type counterImpl struct {
	weaver.Implements[Counter]
	weaver.WithRouter[counterRouter]

	mu     sync.Mutex
	counts map[string]int64
}

func (c *counterImpl) Init(context.Context) error {
	c.counts = map[string]int64{}
	return nil
}

func (c *counterImpl) Add(_ context.Context, key string, delta int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[key] += delta
	return c.counts[key], nil
}

func (c *counterImpl) Value(_ context.Context, key string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[key], nil
}

// Chain calls Echo, demonstrating a component dependency that crosses
// process boundaries under multiprocess deployments.
type Chain interface {
	Relay(ctx context.Context, msg string, n int) (string, error)
}

type chainImpl struct {
	weaver.Implements[Chain]
	echo weaver.Ref[Echo]
}

func (c *chainImpl) Relay(ctx context.Context, msg string, n int) (string, error) {
	out := msg
	for i := 0; i < n; i++ {
		var err error
		out, err = c.echo.Get().Echo(ctx, out+".")
		if err != nil {
			return "", fmt.Errorf("relay hop %d: %w", i, err)
		}
	}
	return out, nil
}

// Mover is the target of live re-placement chaos tests: a routed component
// whose deliveries are observable process-globally, so an in-process
// deployment can prove that no call was lost or executed twice while the
// manager moved the component between groups.
type Mover interface {
	// Deliver records one sequence number on the serving replica.
	//
	//weaver:noretry
	//weaver:priority=high
	Deliver(ctx context.Context, seq int64) (int64, error)
}

type moverRouter struct{}

// Deliver spreads sequence numbers over a handful of routing keys so moves
// exercise affinity assignments, not just replica lists.
func (moverRouter) Deliver(seq int64) string { return fmt.Sprint(seq % 8) }

// moverMu guards moverSeen, which counts executions per sequence number
// across every in-process replica. Deliver has at-most-once semantics
// (weaver:noretry), so each client-visible success must appear here
// exactly once — a missing entry is a lost call, a count above one a
// duplicated one.
var (
	moverMu   sync.Mutex
	moverSeen = map[int64]int{}
)

// MoverCounts returns a copy of the per-sequence execution counts.
func MoverCounts() map[int64]int {
	moverMu.Lock()
	defer moverMu.Unlock()
	out := make(map[int64]int, len(moverSeen))
	for k, v := range moverSeen {
		out[k] = v
	}
	return out
}

// ResetMoverCounts clears the execution counts.
func ResetMoverCounts() {
	moverMu.Lock()
	defer moverMu.Unlock()
	moverSeen = map[int64]int{}
}

type moverImpl struct {
	weaver.Implements[Mover]
	weaver.WithRouter[moverRouter]
}

func (m *moverImpl) Deliver(_ context.Context, seq int64) (int64, error) {
	moverMu.Lock()
	defer moverMu.Unlock()
	moverSeen[seq]++
	return seq, nil
}

// Store is a routed per-key register. Every replica keeps its own
// in-memory state (affinity is a cache-locality mechanism, not
// durability), and every operation is recorded in a process-global event
// log tagged with the serving replica's instance id, so a harness can
// check linearizable per-key register semantics — and catch a caller whose
// calls land on a replica the assignment does not map the key to.
type Store interface {
	Put(ctx context.Context, key string, val int64) (int64, error)
	// Get is marked low-priority so overload tests and the simulator can
	// watch the admission gate shed reads before writes and deliveries.
	//
	//weaver:priority=low
	Get(ctx context.Context, key string) (int64, error)
}

type storeRouter struct{}

func (storeRouter) Put(key string, val int64) string { return key }
func (storeRouter) Get(key string) string            { return key }

// StoreEvent is one recorded Store operation.
type StoreEvent struct {
	Replica uint64 // unique instance id of the serving replica
	Key     string
	Val     int64 // value written, or value returned by the read
	Write   bool
}

var (
	storeMu     sync.Mutex
	storeEvents []StoreEvent
	storeNextID atomic.Uint64
)

// StoreEvents returns a copy of the global Store event log.
func StoreEvents() []StoreEvent {
	storeMu.Lock()
	defer storeMu.Unlock()
	return append([]StoreEvent(nil), storeEvents...)
}

// ResetStoreEvents clears the global Store event log.
func ResetStoreEvents() {
	storeMu.Lock()
	defer storeMu.Unlock()
	storeEvents = nil
}

type storeImpl struct {
	weaver.Implements[Store]
	weaver.WithRouter[storeRouter]

	id   uint64
	mu   sync.Mutex
	vals map[string]int64
}

func (s *storeImpl) Init(context.Context) error {
	s.id = storeNextID.Add(1)
	s.vals = map[string]int64{}
	return nil
}

func (s *storeImpl) record(key string, val int64, write bool) {
	storeMu.Lock()
	storeEvents = append(storeEvents, StoreEvent{Replica: s.id, Key: key, Val: val, Write: write})
	storeMu.Unlock()
}

func (s *storeImpl) Put(_ context.Context, key string, val int64) (int64, error) {
	s.mu.Lock()
	s.vals[key] = val
	s.mu.Unlock()
	s.record(key, val, true)
	return val, nil
}

func (s *storeImpl) Get(_ context.Context, key string) (int64, error) {
	s.mu.Lock()
	val := s.vals[key]
	s.mu.Unlock()
	s.record(key, val, false)
	return val, nil
}

// StoreProxy is an unrouted component that calls Store on behalf of its
// callers. Colocated with Store in a multi-replica group, it is the
// regression case for assignment-aware local dispatch: each proxy replica
// must forward a key to the replica the affinity assignment owns it on,
// never blindly to its own colocated Store.
type StoreProxy interface {
	PutVia(ctx context.Context, key string, val int64) (int64, error)
	GetVia(ctx context.Context, key string) (int64, error)
}

type storeProxyImpl struct {
	weaver.Implements[StoreProxy]
	store weaver.Ref[Store]
}

func (p *storeProxyImpl) PutVia(ctx context.Context, key string, val int64) (int64, error) {
	return p.store.Get().Put(ctx, key, val)
}

func (p *storeProxyImpl) GetVia(ctx context.Context, key string) (int64, error) {
	return p.store.Get().Get(ctx, key)
}

// Backref references Counter, closing a reference cycle across colocation
// groups when grouped against Chain/Echo (Chain→Echo one way, this the
// other). Static configs with such mutual references used to deadlock at
// init; the regression test holds the two groups' components together.
type Backref interface {
	Poke(ctx context.Context, key string) (int64, error)
}

type backrefImpl struct {
	weaver.Implements[Backref]
	counter weaver.Ref[Counter]
}

func (b *backrefImpl) Poke(ctx context.Context, key string) (int64, error) {
	return b.counter.Get().Value(ctx, key)
}

// Failer fails on demand, for error-propagation and chaos tests.
type Failer interface {
	Maybe(ctx context.Context, fail bool) (string, error)
	Crashy(ctx context.Context) (int64, error)
}

var crashyCalls atomic.Int64

type failerImpl struct {
	weaver.Implements[Failer]
}

func (f *failerImpl) Maybe(_ context.Context, fail bool) (string, error) {
	if fail {
		return "", errors.New("requested failure")
	}
	return "ok", nil
}

func (f *failerImpl) Crashy(_ context.Context) (int64, error) {
	return crashyCalls.Add(1), nil
}
