GO ?= go

.PHONY: verify check test build race flake vet bench fuzz scale

# Tier-1 gate: everything must build and every test must pass.
verify:
	$(GO) build ./... && $(GO) test ./...

# The packages whose tests run goroutines concurrently. check runs them
# under the race detector, and every other package once under the
# pooldebug checker, which catches in the single-threaded simulator the
# use-after-release the race detector cannot see there.
CONCURRENT = adapt/internal/(runtime|nettransport|serve|progress|metrics|trace)
CONCURRENT_PKGS = $$($(GO) list ./... | grep -E '^$(CONCURRENT)')
OTHER_PKGS = $$($(GO) list ./... | grep -vE '^$(CONCURRENT)')

# Pre-merge gate: static checks (vet + gofmt); the concurrent packages,
# bench's parallel sweep and the live, TCP and daemon conformance grids
# under the race detector; every other package (the conformance registry
# and the simulator among them), and the golden tests and committed fuzz
# corpora everywhere, under pooldebug; the flake hunt and a short fuzz
# pass. make race keeps the whole suite under the race detector.
check: vet
	$(GO) test -race $(CONCURRENT_PKGS)
	$(GO) test -race -run 'TestParallelSweep|TestConformanceGrid(Daemon|TCP)$$|TestConformanceFECGrid(Live|TCP)$$|TestCrashGridTCP|TestEagerBoundary|TestSeqWrap|TestAllreduceBufferOwnership' ./internal/bench ./internal/conform
	$(GO) test -tags pooldebug $(OTHER_PKGS)
	$(GO) test -tags pooldebug -run 'Golden|Fuzz' $(CONCURRENT_PKGS)
	$(MAKE) flake
	$(MAKE) fuzz FUZZTIME=5s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector (the fault-tolerant collectives'
# FT tests among it), then the full-width conformance grids:
# every collective × world sizes × payload units × segment counts × fault
# plans, byte-compared against golden no-fault runs, and the fail-stop
# survivor-set grids (crash@rank plans, detector, tree repair) on both
# substrates with the clean-run detector-counter gate
# (ADAPT_CONFORM_FULL widens every axis).
race:
	$(GO) test -race ./...
	ADAPT_CONFORM_FULL=1 $(GO) test -race -v -run 'TestConformance|TestFault|TestDropAll|TestProperty|TestClean' ./internal/conform
	ADAPT_CONFORM_FULL=1 $(GO) test -race -v -run 'TestCrash|TestCleanRunDetectorCountersZero' ./internal/conform

# Flake hunt: every *Deterministic*, soak and golden test, fifty times
# over, and the conformance grids that run on live goroutines and sockets
# (daemon, TCP, live and TCP FEC) plus the daemon-backed proxy adapter.
flake:
	$(GO) test -count=50 -run 'Deterministic|Soak|Golden' ./...
	$(GO) test -count=50 -run 'TestConformanceGrid(Daemon|TCP)$$|TestConformanceFECGrid(Live|TCP)$$' ./internal/conform
	$(GO) test -count=50 -run 'TestProxy' ./internal/serve

# Static checks: go vet (also over the pooldebug-only files), and gofmt
# must have nothing to reformat.
vet:
	$(GO) vet ./...
	$(GO) vet -tags pooldebug ./...
	@out="$$(gofmt -l internal cmd examples)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# The one target that runs the bench harness: microbenchmarks for the
# simulation kernel and segment-buffer pool, the multi-collective
# concurrency benchmark with its clean-run counters gate, the serving
# layer (BENCH_serve.json + the adaptd clean-counters check) and the
# obs section (adaptd -admin under adaptbench -serve load, scraped
# mid-run by adaptctl -check -> BENCH_obs.json); writes BENCH_kernel.json,
# BENCH_progress.json, BENCH_serve.json and BENCH_obs.json. Then the
# telemetry gate-cost benchmarks: the metrics recording paths with the
# gate off and on, and the kernel's dispatch cost with a dispatch
# observer attached (the untraced path is in scripts/bench.sh).
bench:
	./scripts/bench.sh
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkCounterDisabled|BenchmarkLatencyBracketDisabled' -benchmem ./internal/metrics
	$(GO) test -run '^$$' -bench 'BenchmarkKernelDispatchObserved$$' -benchmem ./internal/sim

# Million-rank kernel-scaling ladder: tree bcast/reduce and allreduce in
# the goroutine-per-rank and flat rank drivers from 1k to 1M simulated
# ranks, with the ≥100k-broadcast-under-8GB and flat-beats-proc gates.
# Rows (events/s, peak RSS, ranks/GB) merge into BENCH_kernel.json.
scale:
	SCALE_LADDER=1k,10k,100k,1m SCALE_COLLS=bcast,reduce,allreduce ./scripts/scale.sh

# Short fuzz passes over the tag-matching predicate, the fault-plan
# parser, the unified matching core, the daemon's framed codec in both
# directions (client requests and server replies), and the erasure
# codec's encode/reconstruct round trip; the committed corpora under
# testdata/fuzz run in every normal `go test`, this target explores
# beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTagMatch -fuzztime $(FUZZTIME) ./internal/comm
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzMatch -fuzztime $(FUZZTIME) ./internal/progress
	$(GO) test -run '^$$' -fuzz FuzzRequestFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzFEC -fuzztime $(FUZZTIME) ./internal/fec
