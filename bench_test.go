// Benchmarks regenerating the paper's evaluation (§6.1) and the ablations
// indexed in DESIGN.md §5. Each benchmark maps to one table, figure, or
// design claim:
//
//	BenchmarkTable2Sim         Table 2 on the simulated cloud (T2/T2b/H1)
//	BenchmarkCodec             ablation A1: unversioned vs tagged vs JSON
//	BenchmarkTransport         ablation A2: custom TCP vs HTTP/1.1+JSON
//	BenchmarkTransportThroughput  ablation A12: calls/s at 1/8/64 callers
//	BenchmarkColocationSweep   ablation A3: 1..10 colocation groups
//	BenchmarkAffinityRouting   ablation A4: §5.2 affinity benefit
//	BenchmarkRollout           ablation A5: §4.4 rolling vs atomic updates
//	BenchmarkPlacement         ablation A6: §5.1 planning cost
//	BenchmarkAdmissionControl  ablation A8: admission-control overhead
//	BenchmarkHedgedTailLatency ablation A8: §5 hedging vs tail latency
//
// Custom metrics: cores (avg provisioned cores), p50_ms (median latency),
// hit_rate (cache hits/lookups), failure_rate (failed/total requests).
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boutique"
	"repro/internal/codec"
	"repro/internal/codec/tagged"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/placement"
	"repro/internal/rollout"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/simcloud"
	"repro/weaver"

	"repro/internal/callgraph"
)

// --- T2: Table 2 on the simulated cloud ---

func BenchmarkTable2Sim(b *testing.B) {
	// The full 10k QPS run takes minutes; benchmarks use 2000 QPS, which
	// preserves every ratio (see EXPERIMENTS.md for the 10k numbers from
	// cmd/evaluate).
	const qps = 2000
	modes := []struct {
		name   string
		costs  simcloud.CostModel
		groups map[string]string
	}{
		{"Baseline", simcloud.BaselineCosts, nil},
		{"Weaver", simcloud.WeaverCosts, nil},
		{"Colocated", simcloud.WeaverCosts, simcloud.ColocateAll()},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var last simcloud.BoutiqueResult
			for i := 0; i < b.N; i++ {
				last = simcloud.RunBoutique(simcloud.BoutiqueOptions{
					QPS: qps, Costs: m.costs, Groups: m.groups, Seed: 1,
					WarmupSeconds: 60, MeasureSeconds: 40,
				})
			}
			b.ReportMetric(last.TotalCores, "cores")
			b.ReportMetric(last.MedianLatency*1e3, "p50_ms")
			b.ReportMetric(last.CompletedQPS, "qps")
		})
	}
}

// benchFill fills a component for an in-process deployment, with its
// listeners on loopback.
func benchFill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	listen := func(string) (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	return weaver.FillComponent(impl, name, logger, resolve, listen)
}

// --- A1: serialization formats ---

// benchOrder is a boutique-checkout-shaped payload.
func benchOrder() boutique.Order {
	return boutique.Order{
		OrderID:            "ORD-00004217",
		ShippingTrackingID: "TRK-00AB12CD34EF",
		ShippingCost:       boutique.Money{CurrencyCode: "USD", Units: 8, Nanos: 990000000},
		ShippingAddress: boutique.Address{
			StreetAddress: "1600 Amphitheatre Parkway",
			City:          "Mountain View", State: "CA", Country: "USA", ZipCode: 94043,
		},
		Items: []boutique.OrderItem{
			{Item: boutique.CartItem{ProductID: "OLJCESPC7Z", Quantity: 2}, Cost: boutique.Money{CurrencyCode: "USD", Units: 39, Nanos: 980000000}},
			{Item: boutique.CartItem{ProductID: "6E92ZMYYFZ", Quantity: 1}, Cost: boutique.Money{CurrencyCode: "USD", Units: 8, Nanos: 990000000}},
			{Item: boutique.CartItem{ProductID: "1YMWWN1N4O", Quantity: 1}, Cost: boutique.Money{CurrencyCode: "USD", Units: 109, Nanos: 990000000}},
		},
		Total: boutique.Money{CurrencyCode: "USD", Units: 167, Nanos: 950000000},
	}
}

// taggedOrder mirrors benchOrder for the tagged codec (field numbers).
type taggedMoney struct {
	CurrencyCode string `tag:"1"`
	Units        int64  `tag:"2"`
	Nanos        int32  `tag:"3"`
}

type taggedItem struct {
	ProductID string      `tag:"1"`
	Quantity  int32       `tag:"2"`
	Cost      taggedMoney `tag:"3"`
}

type taggedOrder struct {
	OrderID            string       `tag:"1"`
	ShippingTrackingID string       `tag:"2"`
	ShippingCost       taggedMoney  `tag:"3"`
	Street             string       `tag:"4"`
	City               string       `tag:"5"`
	State              string       `tag:"6"`
	Country            string       `tag:"7"`
	Zip                int32        `tag:"8"`
	Items              []taggedItem `tag:"9"`
	Total              taggedMoney  `tag:"10"`
}

func benchTaggedOrder() taggedOrder {
	o := benchOrder()
	t := taggedOrder{
		OrderID:            o.OrderID,
		ShippingTrackingID: o.ShippingTrackingID,
		ShippingCost:       taggedMoney{o.ShippingCost.CurrencyCode, o.ShippingCost.Units, o.ShippingCost.Nanos},
		Street:             o.ShippingAddress.StreetAddress,
		City:               o.ShippingAddress.City,
		State:              o.ShippingAddress.State,
		Country:            o.ShippingAddress.Country,
		Zip:                o.ShippingAddress.ZipCode,
		Total:              taggedMoney{o.Total.CurrencyCode, o.Total.Units, o.Total.Nanos},
	}
	for _, it := range o.Items {
		t.Items = append(t.Items, taggedItem{it.Item.ProductID, it.Item.Quantity, taggedMoney{it.Cost.CurrencyCode, it.Cost.Units, it.Cost.Nanos}})
	}
	return t
}

func BenchmarkCodec(b *testing.B) {
	order := benchOrder()
	torder := benchTaggedOrder()

	b.Run("WeaverUnversioned", func(b *testing.B) {
		b.ReportAllocs()
		data := codec.Marshal(order)
		b.ReportMetric(float64(len(data)), "wire_bytes")
		var out boutique.Order
		for i := 0; i < b.N; i++ {
			var e codec.Encoder
			codec.EncodePtr(&e, &order)
			if err := codec.Unmarshal(e.Data(), &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TaggedProtoLike", func(b *testing.B) {
		b.ReportAllocs()
		data, err := tagged.Marshal(torder)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(data)), "wire_bytes")
		for i := 0; i < b.N; i++ {
			data, err := tagged.Marshal(torder)
			if err != nil {
				b.Fatal(err)
			}
			var out taggedOrder
			if err := tagged.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JSON", func(b *testing.B) {
		b.ReportAllocs()
		data, err := json.Marshal(order)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(data)), "wire_bytes")
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(order)
			if err != nil {
				b.Fatal(err)
			}
			var out boutique.Order
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A2: transports ---

func BenchmarkTransport(b *testing.B) {
	order := benchOrder()

	b.Run("WeaverTCP", func(b *testing.B) {
		// The production data-plane path: a framed handler answering from
		// a pooled encoder, and the zero-copy CallFramed client API that
		// generated stubs use via core.DataPlaneConn.
		srv := rpc.NewServer()
		registerEcho(srv, "bench.Echo")
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client := rpc.NewClient(addr, rpc.ClientOptions{})
		defer client.Close()
		ctx := context.Background()
		payload := codec.Marshal(order)
		method := rpc.MethodKey("bench.Echo")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := callEcho(ctx, client, method, payload, rpc.CallOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(payload)), "payload_bytes")
	})

	b.Run("WeaverTCPCompressed", func(b *testing.B) {
		// §5.1's optional wire compression, on a large compressible
		// payload (a product-catalog-sized response).
		srv := rpc.NewServer()
		registerEcho(srv, "bench.EchoC")
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client := rpc.NewClient(addr, rpc.ClientOptions{Compress: true})
		defer client.Close()
		ctx := context.Background()
		var products []boutique.Product
		for i := 0; i < 40; i++ {
			products = append(products, boutique.Product{
				ID: fmt.Sprintf("PROD-%04d", i), Name: "Widget",
				Description: "A description that repeats across the catalog payload.",
				Price:       boutique.Money{CurrencyCode: "USD", Units: int64(i), Nanos: 990000000},
				Categories:  []string{"catalog", "bench"},
			})
		}
		payload := codec.Marshal(products)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := callEcho(ctx, client, rpc.MethodKey("bench.EchoC"), payload, rpc.CallOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(payload)), "payload_bytes")
	})

	b.Run("HTTPJSON", func(b *testing.B) {
		// The status-quo stack carrying the same logical payload.
		reg, ok := findRegistration("repro/internal/boutique/Email")
		if !ok {
			b.Skip("boutique registration not found")
		}
		_ = reg
		// Measure a minimal HTTP+JSON round trip through net/http, the
		// same path internal/httprpc uses.
		mux := newEchoHTTP()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer lis.Close()
		go serveHTTP(lis, mux)
		payload, _ := json.Marshal(order)
		client := newHTTPClient()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := postJSON(client, "http://"+lis.Addr().String()+"/echo", payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(payload)), "payload_bytes")
	})
}

// BenchmarkTransportParallel measures throughput under concurrency: many
// goroutines multiplexed over the weaver client's striped connections.
func BenchmarkTransportParallel(b *testing.B) {
	srv := rpc.NewServer()
	registerEcho(srv, "bench.EchoP")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := rpc.NewClient(addr, rpc.ClientOptions{NumConns: 4})
	defer client.Close()
	payload := codec.Marshal(benchOrder())
	ctx := context.Background()
	method := rpc.MethodKey("bench.EchoP")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := callEcho(ctx, client, method, payload, rpc.CallOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransportThroughput measures sustained call throughput at fixed
// caller counts (ablation A12 in EXPERIMENTS.md): each caller goroutine
// keeps exactly one call outstanding, so the 1-caller case exposes lone-call
// latency (the coalescer must flush immediately when the pipe is idle) while
// 8 and 64 callers exercise group commit — concurrent frames riding one
// vectored write — across the client's default connection stripes.
func BenchmarkTransportThroughput(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("Callers%d", callers), func(b *testing.B) {
			srv := rpc.NewServer()
			registerEcho(srv, "bench.EchoT")
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			client := rpc.NewClient(addr, rpc.ClientOptions{}) // default stripes
			defer client.Close()
			payload := codec.Marshal(benchOrder())
			ctx := context.Background()
			method := rpc.MethodKey("bench.EchoT")

			// Warm every stripe before the clock starts.
			for i := 0; i < 8; i++ {
				if err := callEcho(ctx, client, method, payload, rpc.CallOptions{}); err != nil {
					b.Fatal(err)
				}
			}

			var calls atomic.Int64
			var failed atomic.Value
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for calls.Add(1) <= int64(b.N) {
						if err := callEcho(ctx, client, method, payload, rpc.CallOptions{Shard: uint64(w) + 1}); err != nil {
							failed.Store(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if err := failed.Load(); err != nil {
				b.Fatal(err)
			}
			if secs := elapsed.Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "calls/s")
			}
		})
	}
}

// BenchmarkLoadSweep is an extension experiment (E1 in EXPERIMENTS.md):
// median latency versus offered load for the baseline and weaver transport
// stacks on the simulated cloud with autoscaling capped, showing where each
// stack saturates.
func BenchmarkLoadSweep(b *testing.B) {
	for _, mode := range []struct {
		name  string
		costs simcloud.CostModel
	}{
		{"Baseline", simcloud.BaselineCosts},
		{"Weaver", simcloud.WeaverCosts},
	} {
		for _, qps := range []float64{500, 1000, 2000, 4000} {
			b.Run(fmt.Sprintf("%s/qps%d", mode.name, int(qps)), func(b *testing.B) {
				var last simcloud.BoutiqueResult
				for i := 0; i < b.N; i++ {
					last = simcloud.RunBoutique(simcloud.BoutiqueOptions{
						QPS: qps, Costs: mode.costs, Seed: 4,
						WarmupSeconds: 40, MeasureSeconds: 30,
						MaxPodsPerService: 8, // fixed capacity: saturation is the point
					})
				}
				b.ReportMetric(last.MedianLatency*1e3, "p50_ms")
				b.ReportMetric(last.P99Latency*1e3, "p99_ms")
				b.ReportMetric(last.TotalCores, "cores")
			})
		}
	}
}

// --- A3: colocation sweep ---

func BenchmarkColocationSweep(b *testing.B) {
	comps := simcloud.Components
	for _, groups := range []int{1, 2, 5, 10} {
		name := fmt.Sprintf("Groups%d", groups)
		b.Run(name, func(b *testing.B) {
			mapping := map[string]string{}
			for i, c := range comps {
				mapping[c] = fmt.Sprintf("g%d", i%groups)
			}
			var last simcloud.BoutiqueResult
			for i := 0; i < b.N; i++ {
				last = simcloud.RunBoutique(simcloud.BoutiqueOptions{
					QPS: 1000, Costs: simcloud.WeaverCosts, Groups: mapping, Seed: 2,
					WarmupSeconds: 40, MeasureSeconds: 30,
				})
			}
			b.ReportMetric(last.TotalCores, "cores")
			b.ReportMetric(last.MedianLatency*1e3, "p50_ms")
		})
	}
}

// --- A4: affinity routing ---

func BenchmarkAffinityRouting(b *testing.B) {
	replicas := []string{"r1", "r2", "r3", "r4"}
	assignment := routing.EqualSlices(1, replicas, 4)

	// Each replica holds a bounded FIFO cache, so a replica that sees the
	// whole key space (no affinity) thrashes while a replica that owns a
	// stable shard of keys (affinity) does not.
	const cacheCap = 200
	type fifoCache struct {
		set   map[uint64]bool
		order []uint64
	}
	// pick stands in for the data-plane conn's replica choice: the slice
	// owner for a routed call, else the next replica in rotation.
	run := func(b *testing.B, pick func(key uint64) string) {
		caches := map[string]*fifoCache{}
		for _, r := range replicas {
			caches[r] = &fifoCache{set: map[uint64]bool{}}
		}
		rng := rand.New(rand.NewPCG(9, 9))
		var hits, lookups float64
		for i := 0; i < b.N; i++ {
			// Skewed popularity over a key space larger than one cache.
			f := rng.Float64()
			key := uint64(f*f*3000) + 1
			h := routing.KeyHash(fmt.Sprint(key))
			lookups++
			c := caches[pick(h)]
			if c.set[key] {
				hits++
				continue
			}
			c.set[key] = true
			c.order = append(c.order, key)
			if len(c.order) > cacheCap {
				evict := c.order[0]
				c.order = c.order[1:]
				delete(c.set, evict)
			}
		}
		if lookups > 0 {
			b.ReportMetric(hits/lookups, "hit_rate")
		}
	}

	b.Run("Affinity", func(b *testing.B) {
		run(b, func(key uint64) string { return assignment.Find(key)[0] })
	})
	b.Run("RoundRobin", func(b *testing.B) {
		next := 0
		run(b, func(uint64) string {
			next++
			return replicas[next%len(replicas)]
		})
	})
}

// --- A5: rollouts ---

func BenchmarkRollout(b *testing.B) {
	for _, p := range []rollout.Policy{rollout.RollingUnversioned, rollout.RollingTagged, rollout.AtomicUnversioned} {
		b.Run(p.String(), func(b *testing.B) {
			var last rollout.Result
			for i := 0; i < b.N; i++ {
				last = rollout.Run(p, rollout.Config{Replicas: 10, RequestsPerStep: 500, Seed: 7})
			}
			b.ReportMetric(last.FailureRate, "failure_rate")
			b.ReportMetric(float64(last.PeakFleet), "peak_fleet")
		})
	}
}

// --- A8: overload control and hedging ---

// BenchmarkAdmissionControl measures the data-plane cost of server-side
// admission control on an uncontended path: the semaphore must be nearly
// free when the server is below capacity.
func BenchmarkAdmissionControl(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts rpc.ServerOptions
	}{
		{"Unlimited", rpc.ServerOptions{}},
		{"MaxInflight64", rpc.ServerOptions{MaxInflight: 64, MaxQueue: 64}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv := rpc.NewServerWithOptions(mode.opts)
			registerEcho(srv, "bench.Adm")
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			client := rpc.NewClient(addr, rpc.ClientOptions{})
			defer client.Close()
			ctx := context.Background()
			payload := codec.Marshal(benchOrder())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := callEcho(ctx, client, rpc.MethodKey("bench.Adm"), payload, rpc.CallOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHedgedTailLatency shows hedging's effect on the tail when one of
// two replicas is slow: p99 with hedging tracks the fast replica, without it
// the slow one.
func BenchmarkHedgedTailLatency(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"Hedged", false},
		{"Unhedged", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			const component = "bench/Hedge"
			mkServer := func() (*rpc.Server, string) {
				srv := rpc.NewServer()
				registerEcho(srv, component+".M")
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				return srv, addr
			}
			slow, slowAddr := mkServer()
			defer slow.Close()
			fast, fastAddr := mkServer()
			defer fast.Close()
			slow.SetDelay(3 * time.Millisecond)

			conn := core.NewDataPlaneConn(component, core.ConnOptions{HedgeAfter: time.Millisecond, DisableHedging: mode.disable})
			defer conn.Close()
			conn.UpdateRouting(1, []string{slowAddr, fastAddr}, nil)
			spec := &codegen.MethodSpec{
				Name:    "M",
				NewArgs: func() codegen.Message { return &emptyMsg{} },
				NewRes:  func() codegen.Message { return &emptyMsg{} },
				Do:      func(context.Context, any, any, any) {},
			}
			ctx := context.Background()
			lats := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var args, res emptyMsg
				t0 := time.Now()
				if err := conn.Invoke(ctx, component, spec, &args, &res, 0, false); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			if len(lats) > 0 {
				b.ReportMetric(float64(lats[len(lats)*99/100].Microseconds())/1e3, "p99_ms")
			}
		})
	}
}

// --- A6: placement planning ---

func BenchmarkPlacement(b *testing.B) {
	// A boutique-shaped call graph.
	c := callgraph.NewCollector()
	edges := []struct {
		caller, callee string
		calls          int
	}{
		{"Frontend", "Currency", 3439}, {"Frontend", "ProductCatalog", 1090},
		{"Frontend", "AdService", 809}, {"Frontend", "Recommendation", 613},
		{"Recommendation", "ProductCatalog", 613}, {"Frontend", "Cart", 320},
		{"Frontend", "Shipping", 180}, {"Frontend", "Checkout", 60},
		{"Checkout", "Cart", 120}, {"Checkout", "Payment", 60},
		{"Checkout", "Shipping", 120}, {"Checkout", "Email", 60},
		{"Checkout", "Currency", 180}, {"Checkout", "ProductCatalog", 120},
	}
	for _, e := range edges {
		for i := 0; i < e.calls/10; i++ {
			c.Record(e.caller, e.callee, "M", time.Microsecond, 100, true, false)
		}
	}
	g := c.Analyze()
	b.ReportAllocs()
	var score float64
	for i := 0; i < b.N; i++ {
		score = placement.Evaluate(g, placement.Config{MaxGroupSize: 4}).Score
	}
	b.ReportMetric(score, "locality")
}
