// The cache example reproduces §5.2 of the paper: "consider an in-memory
// cache component backed by an underlying disk-based storage system. The
// cache hit rate and overall performance increase when requests for the
// same key are routed to the same cache replica."
//
// KVCache is a routed component (weaver.WithRouter): the runtime directs
// all requests for a key to the same replica, Slicer-style. KVStore is the
// disk-backed storage behind it, built on the repository's log-structured
// store. The example deploys three cache replicas in a multiprocess-shaped
// in-process deployment, drives a skewed workload at them, and prints the
// aggregate hit rate — which collapses if you disable routing (try
// -affinity=false).
//
//	go run ./examples/cache
//	go run ./examples/cache -affinity=false
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deploy"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/weaver"
)

// KVStore is the disk-based storage system behind the cache.
type KVStore interface {
	Load(ctx context.Context, key string) (string, error)
	Save(ctx context.Context, key, value string) error
}

type kvStore struct {
	weaver.Implements[KVStore]
	db *store.Store
}

// Init opens the backing store.
func (s *kvStore) Init(context.Context) error {
	dir := os.Getenv("CACHE_STORE_DIR")
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "weaver-cache")
		if err != nil {
			return err
		}
	}
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	s.db = db
	return nil
}

// Shutdown closes the backing store.
func (s *kvStore) Shutdown(context.Context) error { return s.db.Close() }

// Load reads a value; missing keys are materialized deterministically (the
// "database" can answer anything, slowly).
func (s *kvStore) Load(_ context.Context, key string) (string, error) {
	if v, ok, err := s.db.Get(key); err != nil {
		return "", err
	} else if ok {
		return string(v), nil
	}
	// Simulate the expensive backing computation the cache exists to
	// avoid, then persist the result.
	time.Sleep(2 * time.Millisecond)
	v := "value-of-" + key
	if err := s.db.Put(key, []byte(v)); err != nil {
		return "", err
	}
	return v, nil
}

// Save writes a value through to disk.
func (s *kvStore) Save(_ context.Context, key, value string) error {
	return s.db.Put(key, []byte(value))
}

// CacheStats identifies one replica's hit/miss counters.
type CacheStats struct {
	ReplicaID string
	Hits      int64
	Misses    int64
}

// KVCache is the routed in-memory cache component.
type KVCache interface {
	// Get returns the value for key, reading through to the store on miss.
	Get(ctx context.Context, key string) (string, error)
	// Stats returns this replica's hit/miss counters.
	Stats(ctx context.Context) (CacheStats, error)
}

type cacheRouter struct{}

func (cacheRouter) Get(key string) string { return key }

type kvCache struct {
	weaver.Implements[KVCache]
	weaver.WithRouter[cacheRouter]
	store weaver.Ref[KVStore]

	mu     sync.Mutex
	id     string
	data   map[string]string
	hits   int64
	misses int64
}

// Init prepares the cache map.
func (c *kvCache) Init(context.Context) error {
	c.data = map[string]string{}
	c.id = fmt.Sprintf("replica-%08x", rand.Uint64())
	return nil
}

// Get serves from memory or reads through to the store. A hedged
// duplicate of a lookup that another replica is still serving fills the
// cache but is not counted, so hits+misses equals the lookups made.
func (c *kvCache) Get(ctx context.Context, key string) (string, error) {
	info, _ := rpc.InfoFromContext(ctx)
	count := int64(1)
	if info.Meta.Hedge {
		count = 0
	}
	c.mu.Lock()
	if v, ok := c.data[key]; ok {
		c.hits += count
		c.mu.Unlock()
		return v, nil
	}
	c.misses += count
	c.mu.Unlock()

	v, err := c.store.Get().Load(ctx, key)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.data[key] = v
	c.mu.Unlock()
	return v, nil
}

// Stats reports this replica's counters.
func (c *kvCache) Stats(context.Context) (CacheStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{ReplicaID: c.id, Hits: c.hits, Misses: c.misses}, nil
}

func main() {
	affinity := flag.Bool("affinity", true, "route requests for a key to the same replica")
	keys := flag.Int("keys", 300, "distinct keys in the workload")
	requests := flag.Int("requests", 3000, "workload size")
	flag.Parse()

	ctx := context.Background()

	// Deploy with three cache replicas. Disabling -affinity deploys the
	// cache as an unrouted component, so its pushes carry no slice
	// assignment and the caller's conn rotates keys across
	// replicas — exactly the contrast §5.2 draws.
	components := deploy.Inventory()
	if !*affinity {
		for i := range components {
			components[i].Routed = false
		}
	}
	d, err := deploy.StartInProcess(ctx, deploy.Options{
		Config: manager.Config{
			App:        "cache-example",
			Components: components,
			Autoscale: map[string]autoscale.Config{
				"KVCache": {MinReplicas: 3, MaxReplicas: 3},
			},
		},
		Fill: func(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
			return weaver.FillComponent(impl, name, logger, resolve, nil)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Stop()

	cache, err := deploy.Get[KVCache](ctx, d)
	if err != nil {
		log.Fatal(err)
	}

	// Wait for all replicas so the assignment is stable.
	deadline := time.Now().Add(10 * time.Second)
	for d.Manager.ReplicaCount("KVCache") < 3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}

	// Skewed (zipf-like) workload: popular keys dominate.
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Now()
	for i := 0; i < *requests; i++ {
		// Square a uniform sample to skew toward low key indexes.
		f := rng.Float64()
		key := fmt.Sprintf("key-%d", int(f*f*float64(*keys)))
		if _, err := cache.Get(ctx, key); err != nil {
			log.Fatalf("Get: %v", err)
		}
	}
	elapsed := time.Since(start)

	hits, misses, err := totalStats(ctx, d)
	if err != nil {
		log.Fatal(err)
	}
	mode := "affinity routing"
	if !*affinity {
		mode = "round-robin (no affinity)"
	}
	fmt.Printf("cache: %s, 3 replicas, %d requests over %d keys in %v\n", mode, *requests, *keys, elapsed.Round(time.Millisecond))
	fmt.Printf("cache: hits=%d misses=%d hit rate=%.1f%%\n", hits, misses, 100*float64(hits)/float64(hits+misses))
}

// totalStats sums hit/miss counters across every cache replica by sampling
// Stats repeatedly: Stats is unrouted, so the caller's conn rotates it
// across replicas and sampling visits them all. Replicas are deduplicated
// by id, keeping the freshest counters.
func totalStats(ctx context.Context, d *deploy.InProcess) (hits, misses int64, err error) {
	cache, err := deploy.Get[KVCache](ctx, d)
	if err != nil {
		return 0, 0, err
	}
	latest := map[string]CacheStats{}
	for i := 0; i < 60; i++ {
		st, err := cache.Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		if prev, ok := latest[st.ReplicaID]; !ok || st.Hits+st.Misses > prev.Hits+prev.Misses {
			latest[st.ReplicaID] = st
		}
	}
	for _, st := range latest {
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses, nil
}
