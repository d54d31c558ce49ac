GO ?= go

.PHONY: verify check test build race pooldebug flake vet bench fuzz scale cover

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
# bench's parallel sweep (trimmed under -race) and the live, TCP and
# daemon conformance grids under the race detector; every other package
# (the conformance registry and the simulator among them) but bench's
# trace sweep, and the golden tests and committed fuzz corpora
# everywhere, under pooldebug; the flake hunt and a short fuzz pass.
# make race keeps the whole suite under the race detector, make
# pooldebug under the pooldebug checker.
check: vet
	$(GO) test -race $(CONCURRENT_PKGS)
	$(GO) test -race -run 'TestParallelSweep|TestConformanceGrid(Daemon|TCP)$$|TestConformanceFECGrid(Live|TCP)$$|TestCrashGridTCP|TestEagerBoundary|TestSeqWrap|TestAllreduceBufferOwnership' ./internal/bench ./internal/conform
	$(GO) test -tags pooldebug -skip 'TestTraceSweepByteIdentical' $(OTHER_PKGS)
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

# The whole suite under the pooldebug checker, bench's trace sweep
# included (check skips that one: it traces the fig7a sweep, whose
# pooled records TestParallelSweepMatchesSerial already checks).
pooldebug:
	$(GO) test -tags pooldebug ./...

# Flake hunt: every *Deterministic*, soak and golden test, fifty times
# over, and the conformance grids that run on live goroutines and sockets
# (daemon, TCP, live and TCP FEC) plus the daemon-backed proxy adapter.
flake:
	$(GO) test -count=50 -run 'Deterministic|Soak|Golden' ./...
	$(GO) test -count=50 -run 'TestConformanceGrid(Daemon|TCP)$$|TestConformanceFECGrid(Live|TCP)$$' ./internal/conform
	$(GO) test -count=50 -run 'TestProxy' ./internal/serve

# Static checks: go vet (also over the pooldebug-only files, and for
# darwin, so the non-Linux readiness driver is type-checked), gofmt
# must have nothing to reformat, and the perfbench module (a module of
# its own, so ./... skips it) must still build against the APIs it
# calls.
vet:
	$(GO) vet ./...
	$(GO) vet -tags pooldebug ./...
	GOOS=darwin $(GO) vet ./...
	@out="$$(gofmt -l internal cmd examples)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
	cd perfbench && GOWORK=off $(GO) vet .

# Microbenchmarks; they write no files and gate nothing (every gate is a
# test that runs in tier-1). The simulation kernel's dispatch and
# self-scheduling, the segment-buffer pool, the multi-collective
# concurrency benchmark on one shared progress engine, then the
# telemetry gate-cost benchmarks: the metrics recording paths with the
# gate off and on, and the kernel's dispatch cost with a dispatch
# observer attached.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelDispatch$$|BenchmarkKernelSelfSchedule$$|BenchmarkSegmentPool$$|BenchmarkSegmentMake$$' -benchmem ./internal/sim ./internal/comm
	$(GO) test -run '^$$' -bench 'BenchmarkMultiCollective' ./internal/progress
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkCounterDisabled|BenchmarkLatencyBracketDisabled' -benchmem ./internal/metrics
	$(GO) test -run '^$$' -bench 'BenchmarkKernelDispatchObserved$$' -benchmem ./internal/sim

# Million-rank kernel-scaling ladder: tree bcast/reduce and allreduce in
# the goroutine-per-rank and flat rank drivers from 1k to 1M simulated
# ranks, with the ≥100k-broadcast-under-8GB and flat-beats-proc gates.
# Prints events/s, peak RSS and ranks/GB per cell; tier-1 runs the quick
# 1k,10k broadcast ladder (TestQuickScaleLadder).
scale:
	$(GO) run ./cmd/adapt bench -ranks 1k,10k,100k,1m -ranks-coll bcast,reduce,allreduce

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

# Tier-1 statement coverage with the subprocesses included. The tests
# that run built binaries (TestE2E*, TestQuickScaleLadder, TestExamples)
# build them with -cover under coverage (internal/testbin), and those
# binaries and their worker and cell children write their counters into
# the test's coverage directory, here one shared COVERDIR/pods. The
# in-process profile and the pods merge into COVERDIR/merged.out; the
# target prints the per-package statement table, the total, and every
# function still at 0% (DESIGN §6 says why each one stays).
COVERDIR ?= $(CURDIR)/.cover
cover:
	rm -rf $(COVERDIR) && mkdir -p $(COVERDIR)/pods
	$(GO) test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile=$(COVERDIR)/unit.out ./... \
		-args -test.gocoverdir=$(COVERDIR)/pods > $(COVERDIR)/test.log || { cat $(COVERDIR)/test.log; exit 1; }
	$(GO) tool covdata textfmt -i=$(COVERDIR)/pods -o $(COVERDIR)/pods.out
	{ echo "mode: set"; awk 'FNR > 1 { k = $$1 " " $$2; if (!(k in c) || $$3 > c[k]) c[k] = $$3 } \
		END { for (k in c) print k, c[k] }' $(COVERDIR)/unit.out $(COVERDIR)/pods.out | sort; } > $(COVERDIR)/merged.out
	@awk 'NR > 1 { p = $$1; sub(/\/[^\/]*:.*/, "", p); n[p] += $$2; if ($$3 > 0) c[p] += $$2; N += $$2; if ($$3 > 0) C += $$2 } \
		END { for (p in n) printf "%-32s %6d statements %6.1f%%\n", p, n[p], 100 * c[p] / n[p] | "sort"; close("sort"); \
		printf "%-32s %6d statements %6.1f%%\n", "total", N, 100 * C / N }' $(COVERDIR)/merged.out
	@echo "functions at 0%:"
	@$(GO) tool cover -func=$(COVERDIR)/merged.out | awk '$$NF == "0.0%"'
