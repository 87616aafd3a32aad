package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boutique"
	"repro/internal/callgraph"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/store"
)

// histComponents are the components whose client and served latency means
// are reported.
var histComponents = []string{"Frontend", "Currency", "ProductCatalog", "Cart", "Checkout"}

// budgetComponents are every component of the boutique; the budget has a
// wire row and a self row for each.
var budgetComponents = []string{
	"Frontend", "Currency", "ProductCatalog", "Cart", "Checkout",
	"Recommendation", "Shipping", "Payment", "Email", "AdService",
}

var codecTypes = []string{"HomePage", "ProductPage", "CartPage", "Order"}

// spanNames are the names of the spans the traced run records; the first
// numOpKinds are the root spans of the ops, indexed by opKind.
var spanNames = []string{
	"op.index", "op.setCurrency", "op.browse", "op.addToCart", "op.viewCart", "op.checkout",
	"probe.hop", "core.Currency.Convert",
	"probe.codec", "codec.encode", "codec.decode",
	"probe.store", "store.put",
	"probe.rpc", "rpc.call",
}

// budgetTolerance bounds |budget.residual_frac|: the budget rows must sum
// to the driver's measured mean op latency within this share.
const budgetTolerance = 0.05

// perLayer are the metrics of a -trace 1 run, in the order printed.
// perfbench/README.md says which end-to-end metric each should move.
var perLayer = func() []metricSpec {
	s := []metricSpec{{"core.hop_us_p50", "us", "lower"}}
	for _, c := range histComponents {
		s = append(s, metricSpec{"core.client_us_mean." + c, "us", "lower"})
	}
	for _, c := range histComponents {
		s = append(s, metricSpec{"core.served_us_mean." + c, "us", "lower"})
	}
	s = append(s,
		metricSpec{"core.local_calls_per_op", "count", "lower"},
		metricSpec{"core.overloaded_per_kop", "count", "lower"})
	for _, t := range codecTypes {
		s = append(s,
			metricSpec{"codec.encode_ns." + t, "ns", "lower"},
			metricSpec{"codec.decode_ns." + t, "ns", "lower"},
			metricSpec{"codec.bytes." + t, "B", "lower"})
	}
	s = append(s,
		metricSpec{"rpc.calls_per_op", "count", "lower"},
		metricSpec{"rpc.bytes_per_op", "B", "lower"},
		metricSpec{"rpc.client_flush_frames_mean", "count", "higher"},
		metricSpec{"rpc.server_read_frames_mean", "count", "higher"},
		metricSpec{"rpc.shed_per_kop", "count", "lower"},
		metricSpec{"rpc.bare_call_us_p50", "us", "lower"},
		metricSpec{"rpc.bare_calls_per_s_c64", "1/s", "higher"},
		metricSpec{"store.put_us_p50", "us", "lower"},
		metricSpec{"store.log_bytes_per_op", "B", "lower"},
		metricSpec{"runtime.gc_cpu_frac", "frac", "lower"},
		metricSpec{"runtime.gc_cycles_per_kop", "count", "lower"},
		metricSpec{"runtime.sched_wait_us_p99", "us", "lower"},
		metricSpec{"deploy.start_ms", "ms", "lower"})
	for _, k := range opNames {
		s = append(s, metricSpec{"deploy.first_op_ms." + k, "ms", "lower"})
	}
	s = append(s,
		metricSpec{"proclet.idle_cpu_frac", "frac", "lower"},
		metricSpec{"budget.op_us_mean", "us", "lower"},
		metricSpec{"budget.residual_frac", "frac", "lower"})
	for _, c := range budgetComponents {
		s = append(s,
			metricSpec{"budget.wire_us." + c, "us", "lower"},
			metricSpec{"budget.self_us." + c, "us", "lower"})
	}
	for _, n := range spanNames {
		s = append(s, metricSpec{"trace.self_us." + n, "us", "lower"})
	}
	return append(s, metricSpec{"trace.overhead_frac", "frac", "lower"})
}()

// layerSnapshot is a reading of the counters the program keeps, taken with
// no load running.
type layerSnapshot struct {
	proclet  map[string]metrics.Snapshot // every proclet's registry, merged
	global   map[string]metrics.Snapshot // process registry: rpc.*, core.dataplane.*
	edges    []callgraph.Edge            // the manager's call graph
	logBytes int64                       // cart store log size
}

func (b *bench) snapshotLayers() layerSnapshot {
	var batches [][]metrics.Snapshot
	for _, p := range b.dep.Proclets() {
		batches = append(batches, p.Metrics().Snapshot())
	}
	s := layerSnapshot{
		proclet: metrics.MergeAll(batches...),
		global:  metrics.MergeAll(metrics.Default.Snapshot()),
		edges:   b.dep.Manager.Graph().Edges(),
	}
	if fi, err := os.Stat(filepath.Join(b.storeDir, "store.log")); err == nil {
		s.logBytes = fi.Size()
	}
	return s
}

// histDelta returns the change in a histogram's sum and count.
func histDelta(a, z map[string]metrics.Snapshot, name string) (sum, count float64) {
	return z[name].Sum - a[name].Sum, float64(z[name].Count) - float64(a[name].Count)
}

func counterDelta(a, z map[string]metrics.Snapshot, name string) float64 {
	return z[name].Value - a[name].Value
}

// measureLayers computes the per-layer metrics from the window's counter
// deltas, then runs the probes that time single layers from outside.
func (b *bench) measureLayers(ctx context.Context, a, z layerSnapshot) error {
	m := map[string]float64{}
	ops := float64(b.attempted)
	perOp := func(x float64) float64 { return ratio(x, ops) }
	histMean := func(a, z map[string]metrics.Snapshot, name string) float64 {
		return ratio(histDelta(a, z, name))
	}

	for _, c := range histComponents {
		m["core.client_us_mean."+c] = histMean(a.proclet, z.proclet, "component.latency_us."+c)
		m["core.served_us_mean."+c] = histMean(a.proclet, z.proclet, "component.served_latency_us."+c)
	}
	calls := counterDelta(a.global, z.global, "rpc.client.calls")
	tx := counterDelta(a.global, z.global, "rpc.client.tx_bytes")
	rx := counterDelta(a.global, z.global, "rpc.client.rx_bytes")
	m["rpc.calls_per_op"] = perOp(calls)
	m["rpc.bytes_per_op"] = perOp(tx + rx)
	m["rpc.client_flush_frames_mean"] = histMean(a.global, z.global, "rpc.client.flush_batch_frames")
	m["rpc.server_read_frames_mean"] = histMean(a.global, z.global, "rpc.server.read_batch_frames")
	m["rpc.shed_per_kop"] = 1000 * perOp(counterDelta(a.global, z.global, "rpc.server.shed"))
	m["core.overloaded_per_kop"] = 1000 * perOp(counterDelta(a.global, z.global, "core.dataplane.overloaded"))
	m["store.log_bytes_per_op"] = perOp(float64(z.logBytes - a.logBytes))

	w0, w1 := b.samples[0], b.samples[len(b.samples)-1]
	m["runtime.gc_cpu_frac"] = ratio(w1.gcCPU-w0.gcCPU, w1.allCPU-w0.allCPU)
	m["runtime.gc_cycles_per_kop"] = 1000 * perOp(float64(w1.gcCycles-w0.gcCycles))
	m["runtime.sched_wait_us_p99"] = schedP99(w0, w1)

	m["deploy.start_ms"] = median(b.startMs)
	for k, name := range opNames {
		m["deploy.first_op_ms."+name] = median(b.firstOpMs[k])
	}
	m["proclet.idle_cpu_frac"] = b.idleFrac

	var plain, traced []float64
	for k, s := range b.subWindows() {
		if b.win.spansOn(k) {
			traced = append(traced, float64(s.ops)/s.seconds)
		} else {
			plain = append(plain, float64(s.ops)/s.seconds)
		}
	}
	m["trace.overhead_frac"] = 1 - ratio(median(traced), median(plain))

	b.budget(m, a, z)

	if err := b.probeHop(ctx, m); err != nil {
		return err
	}
	if err := b.probeCodec(m); err != nil {
		return err
	}
	if err := b.probeStore(m); err != nil {
		return err
	}
	// The bare transport probe shares the process's rpc counters, so it
	// runs after every delta above has been taken.
	if err := b.probeRPC(ctx, m, ratio(tx, calls), ratio(rx, calls)); err != nil {
		return err
	}

	for name, st := range selfTimes(b.allSpans()) {
		m["trace.self_us."+name] = ratio(float64(st.selfNanos)/1e3, float64(st.count))
	}
	for _, n := range spanNames {
		if _, ok := m["trace.self_us."+n]; !ok {
			m["trace.self_us."+n] = 0 // no span of this name: the op is not in the mix
		}
	}
	b.layers = m
	return nil
}

// budget splits the mean op latency into a wire+queue row and a self row
// per component, from the window's call-graph edges (client-observed time
// per caller and callee, in nanoseconds) and the served-latency histograms:
//
//	wire_C = time callers spent in remote calls to C - time C served them
//	self_C = served time + local-call time of C - time C spent calling others
//
// The rows sum to the time the driver's calls into Frontend took, which
// must match the driver's own mean op latency within budgetTolerance.
// Local-call dispatch lands in the callee's self row; the served
// histograms hold whole microseconds, which moves up to 1 us per call from
// self to wire.
func (b *bench) budget(m map[string]float64, a, z layerSnapshot) {
	type key struct{ caller, callee, method string }
	prev := map[key]callgraph.Edge{}
	for _, e := range a.edges {
		prev[key{e.Caller, e.Callee, e.Method}] = e
	}
	inRemote, inLocal, out := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var localCalls, frontendCalls float64
	for _, e := range z.edges {
		p := prev[key{e.Caller, e.Callee, e.Method}]
		calls, remote := float64(e.Calls-p.Calls), float64(e.Remote-p.Remote)
		if calls == 0 {
			continue
		}
		nanos := float64(e.TotalNanos - p.TotalNanos)
		callee := core.ShortName(e.Callee)
		inRemote[callee] += nanos * remote / calls
		inLocal[callee] += nanos * (calls - remote) / calls
		out[core.ShortName(e.Caller)] += nanos
		localCalls += calls - remote
		if callee == "Frontend" {
			frontendCalls += calls
		}
	}
	ops := float64(b.attempted)
	m["core.local_calls_per_op"] = ratio(localCalls, ops)
	if frontendCalls != ops {
		b.problems = append(b.problems, fmt.Sprintf("call graph saw %.0f frontend calls in the window, the driver made %.0f", frontendCalls, ops))
	}

	known := map[string]bool{}
	var rows float64
	for _, c := range budgetComponents {
		known[c] = true
		served, _ := histDelta(a.proclet, z.proclet, "component.served_latency_us."+c)
		var wire float64
		if inRemote[c] > 0 {
			wire = inRemote[c]/1e3 - served
		}
		self := served + inLocal[c]/1e3 - out[c]/1e3
		m["budget.wire_us."+c] = ratio(wire, ops)
		m["budget.self_us."+c] = ratio(self, ops)
		rows += ratio(wire+self, ops)
	}
	for _, in := range []map[string]float64{inRemote, inLocal} {
		for c := range in {
			if !known[c] {
				b.problems = append(b.problems, "budget: unexpected component "+c)
			}
		}
	}

	var total time.Duration
	var n int
	for _, c := range b.callers {
		total += c.latSum
		n += c.latN
	}
	mean := ratio(us(total), float64(n))
	m["budget.op_us_mean"] = mean
	m["budget.residual_frac"] = ratio(mean-rows, mean)
	if r := m["budget.residual_frac"]; r > budgetTolerance || r < -budgetTolerance {
		b.problems = append(b.problems, fmt.Sprintf("budget rows sum to %.2f us, measured mean op latency is %.2f us", rows, mean))
	}
}

// probeSpan records a span of the probes under a root span. Probe span IDs
// are their index in probeSpans plus one.
func (b *bench) probeSpan(name string, root uint64, t0, t1 time.Time) {
	b.probeSpans = append(b.probeSpans, span{Name: name, Trace: root, ID: uint64(len(b.probeSpans) + 1), Parent: root,
		Start: t0.Sub(b.epoch).Nanoseconds(), End: t1.Sub(b.epoch).Nanoseconds()})
}

// startSpan opens a root span of a probe; endSpan closes it.
func (b *bench) startSpan(name string) uint64 {
	id := uint64(len(b.probeSpans) + 1)
	now := time.Since(b.epoch).Nanoseconds()
	b.probeSpans = append(b.probeSpans, span{Name: name, Trace: id, ID: id, Start: now, End: now})
	return id
}

func (b *bench) endSpan(id uint64) { b.probeSpans[id-1].End = time.Since(b.epoch).Nanoseconds() }

// timeCalls makes n sequential calls under a root span named probe, with a
// child span named call around each, and returns the median call time.
func (b *bench) timeCalls(probe, call string, n int, fn func(i int) error) (time.Duration, error) {
	root := b.startSpan(probe)
	defer b.endSpan(root)
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", probe, err)
		}
		b.probeSpan(call, root, t0, t1)
		lat = append(lat, t1.Sub(t0))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return percentile(lat, 0.5), nil
}

// probeHop times lone driver -> Currency.Convert calls: one hop through
// the runtime and the transport with a trivial handler.
func (b *bench) probeHop(ctx context.Context, m map[string]float64) error {
	cur, err := deploy.Get[boutique.Currency](ctx, b.dep)
	if err != nil {
		return err
	}
	price, _ := priceOf(catalog[0].id)
	want := convert(price, "EUR")
	p50, err := b.timeCalls("probe.hop", "core.Currency.Convert", 3000, func(int) error {
		got, err := cur.Convert(ctx, price, "EUR")
		if err == nil && got != want {
			b.problems = append(b.problems, fmt.Sprintf("hop probe: Convert gave %+v, want %+v", got, want))
		}
		return err
	})
	m["core.hop_us_p50"] = us(p50)
	return err
}

// codecSamples returns one response of each type captured from the run,
// falling back to the set-up ops for types the mix does not produce.
func (b *bench) codecSamples() map[string]any {
	out := map[string]any{}
	for _, c := range append(append([]*caller(nil), b.callers...), b.setupCaller) {
		if s := c.sample.home; s != nil && out["HomePage"] == nil {
			out["HomePage"] = *s
		}
		if s := c.sample.product; s != nil && out["ProductPage"] == nil {
			out["ProductPage"] = *s
		}
		if s := c.sample.cart; s != nil && out["CartPage"] == nil {
			out["CartPage"] = *s
		}
		if s := c.sample.order; s != nil && out["Order"] == nil {
			out["Order"] = *s
		}
	}
	return out
}

// probeCodec times encoding and decoding of captured responses: the median
// over batches of the time per call.
func (b *bench) probeCodec(m map[string]float64) error {
	const batches, perBatch = 5, 2000
	samples := b.codecSamples()
	root := b.startSpan("probe.codec")
	for _, t := range codecTypes {
		v, ok := samples[t]
		if !ok {
			return fmt.Errorf("codec probe: no %s captured", t)
		}
		data := codec.Marshal(v)
		var enc, dec []float64
		for i := 0; i < batches; i++ {
			t0 := time.Now()
			for j := 0; j < perBatch; j++ {
				codec.Marshal(v)
			}
			t1 := time.Now()
			b.probeSpan("codec.encode", root, t0, t1)
			enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/perBatch)

			t0 = time.Now()
			for j := 0; j < perBatch; j++ {
				if err := decodeAs(t, data); err != nil {
					return fmt.Errorf("codec probe: decoding %s: %w", t, err)
				}
			}
			t1 = time.Now()
			b.probeSpan("codec.decode", root, t0, t1)
			dec = append(dec, float64(t1.Sub(t0).Nanoseconds())/perBatch)
		}
		m["codec.encode_ns."+t] = median(enc)
		m["codec.decode_ns."+t] = median(dec)
		m["codec.bytes."+t] = float64(len(data))
	}
	b.endSpan(root)
	return nil
}

// decodeAs decodes data into a fresh value of the named type.
func decodeAs(t string, data []byte) error {
	switch t {
	case "HomePage":
		var v boutique.HomePage
		return codec.Unmarshal(data, &v)
	case "ProductPage":
		var v boutique.ProductPage
		return codec.Unmarshal(data, &v)
	case "CartPage":
		var v boutique.CartPage
		return codec.Unmarshal(data, &v)
	default:
		var v boutique.Order
		return codec.Unmarshal(data, &v)
	}
}

// probeStore times Puts of the run's cart records, encoded as the cart
// service stores them, into a fresh store.
func (b *bench) probeStore(m map[string]float64) error {
	type record struct {
		key string
		val []byte
	}
	var recs []record
	for _, c := range b.callers {
		for user, items := range c.model {
			if len(items) > 0 {
				recs = append(recs, record{"cart/" + user, codec.Marshal(items)})
			}
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("store probe: no carts to store")
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	s, err := store.Open(filepath.Join(b.dir, "store-probe"), store.Options{})
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	p50, err := b.timeCalls("probe.store", "store.put", 5000, func(i int) error {
		r := recs[i%len(recs)]
		return s.Put(r.key, r.val)
	})
	if cerr := s.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("probe.store: %w", cerr)
	}
	m["store.put_us_p50"] = us(p50)
	return err
}

// probeRPC calls a benchmark-owned echo server over the bare transport,
// with requests and responses of the run's mean frame sizes less the
// fixed frame overhead: once from a lone caller and once from 64
// concurrent callers.
func (b *bench) probeRPC(ctx context.Context, m map[string]float64, txPerCall, rxPerCall float64) error {
	const (
		parallel = 64
		busyFor  = time.Second
	)
	// tx counts the 4-byte length prefix, rx does not; the meta extension
	// is absent on default calls.
	reqSize := max(0, int(txPerCall)-(rpc.PayloadHeadroom-4))
	respSize := max(0, int(rxPerCall)-(rpc.ResponseHeadroom-4))
	resp := make([]byte, respSize)
	srv := rpc.NewServer()
	srv.RegisterFramed("perfbench.Echo", func(_ context.Context, _ []byte) ([]byte, rpc.BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(rpc.ResponseHeadroom)
		enc.Raw(resp)
		return enc.Framed(), enc, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	defer srv.Close()
	client := rpc.NewClient(addr, rpc.ClientOptions{})
	defer client.Close()
	method := rpc.MethodKey("perfbench.Echo")
	req := make([]byte, reqSize)
	call := func() error {
		enc := codec.GetEncoder()
		defer codec.PutEncoder(enc)
		enc.Reserve(rpc.PayloadHeadroom)
		enc.Raw(req)
		r, err := client.CallFramed(ctx, method, enc.Framed(), rpc.CallOptions{})
		if err != nil {
			return err
		}
		if len(r.Data()) != respSize {
			err = fmt.Errorf("echo returned %d bytes, want %d", len(r.Data()), respSize)
		}
		r.Release()
		return err
	}

	p50, err := b.timeCalls("probe.rpc", "rpc.call", 3000, func(int) error { return call() })
	if err != nil {
		return err
	}
	m["rpc.bare_call_us_p50"] = us(p50)

	var done atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(busyFor)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				if err := call(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("rpc probe: %w", firstErr)
	}
	m["rpc.bare_calls_per_s_c64"] = float64(done.Load()) / time.Since(t0).Seconds()
	return nil
}
