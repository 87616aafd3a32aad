.PHONY: check build vet lint test race allocs perfbench bench bench-json sim sim-soak

# Tier-1 verification: everything a PR must keep green.
check: vet lint build race allocs perfbench sim

# Lint gate: gofmt cleanliness, the control plane's single actuation path
# (DESIGN.md §14): outside internal/manager/actuator.go, no non-test file in
# internal/manager or internal/deploy sends a request to a proclet (the
# envelope's host, routing, stop-component and re-register requests), stops
# or kills an envelope, calls a Starter, draws a routing epoch or writes
# LastPush, the call path's
# single metric-binding site (DESIGN.md §13): inside internal/core, metrics
# are looked up by name only in handles.go, where call-site handles bind,
# and the data plane's single frame writer (DESIGN.md §9): frame scratch
# (getFrame) and the frame-size limit appear only in frame.go, flusher.go
# and readbatch.go, plus compress.go, whose decompress bounds an inflated
# payload by the same limit; and a served request's single context
# constructor (DESIGN.md §15): a reqCtx literal, the 16-byte handle over a
# worker's request slot, appears only in newReqCtx, so the server dispatch
# allocation gate measures the one object the read loop builds per request;
# and the code generator's single front end (DESIGN.md §6): no non-test file
# in internal/generate imports go/printer, so every type in generated code is
# spelled from go/types, never from source text; and a conn's single replica
# table (DESIGN.md §10): in non-test internal/core files, rpc.NewClient is
# called only in DataPlaneConn.newReplica, the table's entry constructor, so
# every client belongs to an entry that a routing push prunes (the table
# and the assignment are unexported, so the compiler already routes every
# push through UpdateRouting); and the circuit breaker's single time source
# (DESIGN.md §8): internal/rpc/breaker.go never calls time.Now, so windows
# and cooldowns read the conn's injected clock; and a replica's single
# configuration source (DESIGN.md §8): no non-test Go file outside weaver/
# reads a WEAVER_ environment variable, so every replica setting beyond the
# id, group and role that weaver/ reads comes from the manager over the
# pipe (the ComponentsToHost reply), never from the environment.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi
	@out=$$(grep -n -E '(HostComponents|StopComponent|RoutingInfo|Reregister)\(|\.(Stop\([^)]|Kill\(\))|\bstarter\(|NextEpoch\(|LastPush\[[^]]*\] *=' \
		$$(ls internal/manager/*.go internal/deploy/*.go \
		| grep -v -E '_test\.go$$|^internal/manager/actuator\.go$$') || true); \
	if [ -n "$$out" ]; then \
		echo "actuation outside internal/manager/actuator.go:"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rn -E '\.Metrics\.(Counter|Histogram|Gauge)\(' \
		--include='*.go' internal/core \
		| grep -v '^internal/core/handles\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "metric lookup by name outside internal/core/handles.go:"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -n -E 'getFrame\(\)|maxFrameSize' internal/rpc/*.go \
		| grep -v -E '^internal/rpc/([a-z_]+_test|frame|flusher|readbatch|compress)\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "frame assembly outside internal/rpc/{frame,flusher,readbatch}.go:"; \
		echo "$$out"; exit 1; fi
	@out=$$(awk 'FNR == 1 || /^}/ { fn = "" } /^func / { fn = $$0 } \
		/(^|[^*A-Za-z0-9_])reqCtx\{/ && !(FILENAME == "internal/rpc/workerpool.go" && fn ~ /^func newReqCtx\(/) \
		{ print FILENAME ":" FNR ":" $$0 }' internal/rpc/*.go); \
	if [ -n "$$out" ]; then \
		echo "request handle (reqCtx literal) built outside newReqCtx in internal/rpc/workerpool.go:"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -l '"go/printer"' $$(ls internal/generate/*.go | grep -v '_test\.go$$') || true); \
	if [ -n "$$out" ]; then \
		echo "go/printer imported by internal/generate (spell types with go/types):"; \
		echo "$$out"; exit 1; fi
	@out=$$(awk 'FNR == 1 || /^}/ { fn = "" } /^func / { fn = $$0 } \
		/rpc\.NewClient\(/ && fn !~ /^func \(c \*DataPlaneConn\) newReplica\(/ \
		{ print FILENAME ":" FNR ":" $$0 }' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "rpc client made outside the replica table's entry constructor (DataPlaneConn.newReplica):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -n 'time\.Now' internal/rpc/breaker.go || true); \
	if [ -n "$$out" ]; then \
		echo "internal/rpc/breaker.go reads the wall clock (use its clock.Clock):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -n -E '(Getenv|LookupEnv)\([^)]*WEAVER_' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './weaver/*' ! -path './.*') || true); \
	if [ -n "$$out" ]; then \
		echo "WEAVER_ environment variable read outside weaver/ (replica settings ride the pipe):"; \
		echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Allocation-budget gates for the zero-copy data plane (DESIGN.md §9), for
# hedging's standing cost on the client call path (DESIGN.md §8), for a
# co-located call's bookkeeping (DESIGN.md §13), for the generated
# codecs and for the decoder's string intern table (DESIGN.md §6), for
# the control plane's load reports: the pipe's reused buffers and a report
# applied to the status table (DESIGN.md §14), and for a store write, which
# allocates only its value copy.
# They must run without -race: the detector makes sync.Pool drop Puts at
# random, so alloc counts are only meaningful in a plain build. Two CPU
# counts give two client stripe widths (min(4, GOMAXPROCS) conns), so a
# stripe-width-dependent defect cannot pass on a 1-CPU host.
allocs:
	go test -run TestAllocs -cpu 1,2 -count=1 ./internal/rpc ./internal/core ./internal/boutique ./internal/codec ./internal/pipe ./internal/manager ./internal/store

# The end-to-end benchmark is its own module (perfbench/go.mod), so the
# root vet and build never compile it; vet and test it here so a change to
# an API it uses fails the gate, not the benchmark run.
perfbench:
	cd perfbench && go vet ./... && go test -count=1 ./...

# Deterministic simulation smoke campaign (DESIGN.md §11): fixed seeds,
# race detector on. A failure prints the seed and a shrunk op trace;
# replay it with `go test ./internal/sim -run TestSimSeed -sim.seed=N`.
sim:
	go test -race -count=1 -run 'TestSim|TestGenerate' ./internal/sim

# Open-ended nightly campaign: SIM_SEEDS consecutive seeds starting at
# SIM_BASE (defaults to the current time, logged per seed, so any failure
# is still reproducible from the log).
SIM_SEEDS ?= 50
SIM_BASE  ?= $(shell date +%s)
sim-soak:
	go test -race -count=1 -timeout 0 -run TestSimSoak -v ./internal/sim \
		-sim.seeds=$(SIM_SEEDS) -sim.base=$(SIM_BASE)

bench:
	go test -run xxx -bench . -benchtime 1x .

# bench-json runs the data-plane microbenchmarks, the read-batch benchmark
# and the local-call and remote-Invoke benchmarks (these three at one and
# two CPUs), and records them as machine-readable JSON in BENCH_rpc.json
# (EXPERIMENTS.md A9, A16, A19, A21),
# the placement planner benchmark and the slice-affinity cache benchmark in
# BENCH_placement.json (EXPERIMENTS.md A6/A10, A4), and the generated vs reflective codec round trip plus the
# interned string decode in BENCH_codec.json (EXPERIMENTS.md A1, A1b).
bench-json:
	{ go test -run xxx -bench 'BenchmarkTransport|BenchmarkCall|BenchmarkPriority' -benchmem ./internal/rpc . && \
	  go test -run xxx -bench 'BenchmarkReadBatch' -benchmem -cpu 1,2 ./internal/rpc && \
	  go test -run xxx -bench 'BenchmarkLocalCall|BenchmarkRemoteInvoke' -benchmem -cpu 1,2 ./internal/core; } | go run ./cmd/benchjson -out BENCH_rpc.json
	go test -run xxx -bench 'BenchmarkPlacement|BenchmarkAffinityRouting' -benchmem . | go run ./cmd/benchjson -out BENCH_placement.json
	{ go test -run xxx -bench 'BenchmarkOrderCodec' -benchmem -count 5 ./internal/boutique && \
	  go test -run xxx -bench 'BenchmarkDecodeStrings' -benchmem -count 5 ./internal/codec; } | go run ./cmd/benchjson -out BENCH_codec.json
