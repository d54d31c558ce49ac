GO ?= go

.PHONY: verify check test build race flake vet bench chaos crash fec fuzz trace net progress serve obs scale

# Tier-1 gate: everything must build and every test must pass.
verify:
	$(GO) build ./... && $(GO) test ./...

# Pre-merge gate: static checks (vet + gofmt), the whole suite under the
# race detector, the flake hunt and a short fuzz pass.
check: vet race flake
	$(MAKE) fuzz FUZZTIME=5s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector.
race:
	$(GO) test -race ./...

# Flake hunt: every *Deterministic* and soak test, fifty times over, and
# the conformance grids that run on live goroutines and sockets (daemon,
# TCP, live and TCP FEC) plus the daemon-backed proxy adapter.
flake:
	$(GO) test -count=50 -run 'Deterministic|Soak' ./...
	$(GO) test -count=50 -run 'TestConformanceGrid(Daemon|TCP)$$|TestConformanceFECGrid(Live|TCP)$$' ./internal/conform
	$(GO) test -count=50 -run 'TestProxy' ./internal/serve

# Static checks: go vet, and gofmt must have nothing to reformat.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l internal cmd examples)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# The one target that runs the bench harness: microbenchmarks for the
# simulation kernel and segment-buffer pool, the multi-collective
# concurrency benchmark with its clean-run counters gate, the serving
# layer (BENCH_serve.json + the adaptd clean-counters check) and the
# obs section (adaptd -admin under adaptbench -serve load, scraped
# mid-run by adaptctl -check -> BENCH_obs.json); writes BENCH_kernel.json,
# BENCH_progress.json, BENCH_serve.json and BENCH_obs.json.
bench:
	./scripts/bench.sh

# Million-rank kernel-scaling ladder: tree bcast/reduce and allreduce in
# the goroutine-per-rank and flat rank drivers from 1k to 1M simulated
# ranks, with the ≥100k-broadcast-under-8GB and flat-beats-proc gates.
# Rows (events/s, peak RSS, ranks/GB) merge into BENCH_kernel.json.
scale:
	SCALE_LADDER=1k,10k,100k,1m SCALE_COLLS=bcast,reduce,allreduce ./scripts/scale.sh

# Shared progress-engine gate: the unified matching core and scheduler
# under the race detector (fairness/starvation, mid-flight enrollment,
# fuzz corpus regression), the zero-alloc segment-pool assertion, the
# goroutine-footprint gate on the readiness-loop transport. The bench
# gate (clean-run counters + BENCH_progress.json) runs from `bench`.
progress:
	$(GO) test -race ./internal/progress/...
	$(GO) test -run 'TestSegmentPoolZeroAlloc' ./internal/comm
	$(GO) test -race -run 'TestGoroutineFootprint' ./internal/nettransport

# Full-width conformance grid: every collective × world sizes × payload
# units × segment counts × fault plans, byte-compared against golden
# no-fault runs (ADAPT_CONFORM_FULL widens every axis).
chaos:
	ADAPT_CONFORM_FULL=1 $(GO) test -race -v -run 'TestConformance|TestFault|TestDropAll|TestProperty|TestClean' ./internal/conform

# Fail-stop conformance under the race detector: survivor-set grids for
# the fault-tolerant collectives (crash@rank plans, detector, tree
# repair) on both substrates, plus the clean-run detector-counter gate.
crash:
	ADAPT_CONFORM_FULL=1 $(GO) test -race -v -run 'TestCrash|TestCleanRunDetectorCountersZero' ./internal/conform
	$(GO) test -race -run 'TestBcastFT|TestReduceFT|TestFTDeterministicSchedule' ./internal/core

# Causal-trace pipeline gate: analyzer + exporter tests (including the
# critical-path == sim-makespan check), trace.Buffer under concurrent
# writers with -race, and the zero-overhead guarantee — the nil-tracer
# kernel dispatch path must stay allocation-free.
trace:
	$(GO) test -race ./internal/trace/...
	$(GO) test -run 'TestObserverNilZeroAlloc|TestTraceSweepByteIdentical' ./internal/sim ./internal/bench
	$(GO) test -run '^$$' -bench 'BenchmarkKernelDispatch$$|BenchmarkKernelDispatchObserved$$' -benchmem ./internal/sim

# TCP transport gate: the loopback socket suite under the race detector
# (matching engine, eager/rendezvous wire protocol, lease detector,
# crash paths), the cross-substrate conformance + boundary grids, and
# the multi-process adaptrun end-to-end scenarios (clean verified run,
# dead root -> structured RankFailedError, mid-tree crash healed).
net:
	$(GO) build ./...
	$(GO) test -race ./internal/nettransport/...
	$(GO) test -race -run 'TestConformanceGridTCP|TestCrashGridTCP|TestEagerBoundary|TestSeqWrap' ./internal/conform
	$(GO) test -run 'TestE2E' -v ./cmd/adaptrun

# Serving-layer gate: the daemon package under the race detector (the
# full soak battery with chaos, membership churn, fusing byte-identity,
# proxy sessions) and the daemon-substrate conformance grid. The bench
# gate (BENCH_serve.json + the adaptd clean-counters check) runs from
# `bench`.
serve:
	$(GO) test -race ./internal/serve/...
	$(GO) test -race -run 'TestConformanceGridDaemon' ./internal/conform

# Live telemetry gate: the metrics core under the race detector
# (concurrent writers, merge algebra, quantile error bounds, the golden
# Prometheus exposition, the zero-alloc contract), the perf snapshot
# export-coverage tests, the admin e2e against a live daemon and the
# gate-cost benchmarks. The bench.sh obs section (BENCH_obs.json) runs
# from `bench`.
obs:
	$(GO) test -race ./internal/metrics/... ./internal/perf/...
	$(GO) test -race -run 'TestAdminAgainstLiveServer' ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkCounterDisabled|BenchmarkLatencyBracketDisabled' -benchmem ./internal/metrics

# Erasure-coding gate: the codec and controller under the race detector,
# the FEC paths of all three substrates (simulator, live runtime, TCP
# loopback), the cross-substrate FEC conformance grids, and the
# loss-sweep benchmark with its zero-retransmit gate (BENCH_fec.json).
fec:
	$(GO) test -race ./internal/fec/...
	$(GO) test -race -run 'TestFEC|TestLiveFEC|TestNetFEC' ./internal/simmpi ./internal/runtime ./internal/nettransport
	$(GO) test -race -run 'TestConformanceFEC' ./internal/conform
	$(GO) run ./cmd/adaptbench -fec-json BENCH_fec.json -scale quick

# Short fuzz passes over the tag-matching predicate, the fault-plan
# parser, the unified matching core, the daemon's framed request codec,
# and the erasure codec's encode/reconstruct round trip; the committed
# corpora under testdata/fuzz run in every normal `go test`, this target
# explores beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTagMatch -fuzztime $(FUZZTIME) ./internal/comm
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzMatch -fuzztime $(FUZZTIME) ./internal/progress
	$(GO) test -run '^$$' -fuzz FuzzRequestFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzFEC -fuzztime $(FUZZTIME) ./internal/fec
