.PHONY: check build vet lint test race allocs perfbench bench bench-json sim sim-soak

# Tier-1 verification: everything a PR must keep green.
check: vet lint build race allocs perfbench sim

# Lint gate: gofmt cleanliness, plus the control plane's single-routing-site
# invariant (DESIGN.md §14): routing-mutation envelope calls inside
# internal/manager may appear only in the actuator.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn -E 'SendRoutingInfo|CallRoutingInfo|PushRoutingInfo' \
		--include='*.go' internal/manager \
		| grep -v '^internal/manager/actuator\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "routing mutation outside internal/manager/actuator.go:"; \
		echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Allocation-budget gates for the zero-copy data plane (DESIGN.md §9).
# They must run without -race: the detector makes sync.Pool drop Puts at
# random, so alloc counts are only meaningful in a plain build. Two CPU
# counts give two client stripe widths (min(4, GOMAXPROCS) conns), so a
# stripe-width-dependent defect cannot pass on a 1-CPU host.
allocs:
	go test -run TestAllocs -cpu 1,2 -count=1 ./internal/rpc

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

# bench-json runs the data-plane microbenchmarks and records them as
# machine-readable JSON in BENCH_rpc.json (EXPERIMENTS.md A9), and the
# placement planner benchmark in BENCH_placement.json (EXPERIMENTS.md A6/A10).
bench-json:
	go test -run xxx -bench 'BenchmarkTransport|BenchmarkCall|BenchmarkPriority|BenchmarkReadBatch' -benchmem ./internal/rpc . | go run ./cmd/benchjson -out BENCH_rpc.json
	go test -run xxx -bench 'BenchmarkPlacement' -benchmem . | go run ./cmd/benchjson -out BENCH_placement.json
