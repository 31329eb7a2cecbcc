GO ?= go

.PHONY: build test check loc fuzz-smoke soak-smoke soak-dist soak-byzantine soak-failover bench bench-obs bench-sweep bench-smoke bench-gate bench-e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast robustness gate: require gofmt-clean sources, vet everything,
# race-test the sweep runtime (including the supervised executor,
# journal recovery and kill-resume tests), the durable-file layer, the
# fault injector, and the observability layer (the concurrency-heavy
# packages) plus the CLIs,
# vet and short-test the end-to-end benchmark (its own module, so
# ./... never builds it), then smoke the fuzz targets.
check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./internal/sweep/... ./internal/durable/... ./internal/fault/... ./internal/obs/... ./internal/serve/... ./internal/dist/... ./cmd/gpusweep/... ./cmd/gpuscaled/... ./cmd/sweeptrace/...
	$(GO) test -race -run 'TestPreparedRowMatchesPerCell|TestResidentSetMatchesReference|TestBudget' ./internal/gcn/
	cd cmd/benche2e && $(GO) vet . && $(GO) test -short .
	$(MAKE) fuzz-smoke

# Production Go line counts, the two figures ROADMAP tracks: every
# *.go file except tests, the end-to-end benchmark module
# (cmd/benche2e) and its build directory; then the same count for
# internal/dist alone. A measurement, not a CI gate.
LOC_FILES = -name '*.go' ! -name '*_test.go' ! -path './cmd/benche2e/*' \
	! -path './.bench_build/*' ! -path './.git/*'

loc:
	@echo "$$(find . $(LOC_FILES) -print0 | xargs -0 cat | wc -l) production Go lines"
	@echo "$$(find ./internal/dist $(LOC_FILES) -print0 | xargs -0 cat | wc -l) of them in internal/dist"

# Extended chaos soak of the sweep service: concurrent clients, fault
# injection and a mid-soak restart, under the race detector. The
# default in-tree soak is a few hundred milliseconds; this runs it for
# ~10s wall-clock — still well under 30s — as the pre-merge drill.
soak-smoke:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoak -v -count=1 ./internal/serve/

# Multi-process distributed chaos soak: a coordinator plus three
# child-process workers, with SIGKILLs, coordinator crash-restarts and
# injected network faults (dropped acks, duplicated deliveries,
# delays), race-enabled. Asserts exactly-once completion, a matrix and
# job journal byte-identical to a single-node run, and the
# no-two-live-epochs ledger invariant. On failure the log prints the chaos seed;
# replay it with GPUSCALE_FAULT_SEED=<seed> make soak-dist.
soak-dist:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakDistributed -v -count=1 ./internal/dist/

# Byzantine fleet soak: a worker that corrupts every row it computes
# (wire payload and attested digest consistently wrong), a worker on
# a stale protocol version, two honest workers, and a coordinator
# crash-restart after the quarantine lands — race-enabled. Asserts the
# stale worker is fenced before computing, the liar is quarantined
# with its rows invalidated and re-executed, the matrix and job
# journal stay byte-identical to a single-node run, and the ledger
# audit names every corrupt row. On failure the log prints the seed; replay it
# with GPUSCALE_FAULT_SEED=<seed> make soak-byzantine.
soak-byzantine:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakByzantine -v -count=1 ./internal/dist/

# Coordinator-failover soak: a primary with a warm standby tailing its
# lease ledger over a partition-prone replication link, three workers
# under injected faults including seeded network partitions. The
# primary is killed mid-sweep, the standby promotes itself under a new
# term, workers re-join it through peer rotation with jittered
# backoff, and the deposed primary is term-fenced when it limps back —
# race-enabled. Asserts exactly-once completion across the failover, a
# promoted coordinator's matrix byte-identical to a single-node run,
# and the monotonic-terms / no-two-live-primaries ledger audit. On failure the
# log prints the seed; replay with GPUSCALE_FAULT_SEED=<seed> make
# soak-failover.
soak-failover:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakFailover -v -count=1 ./internal/dist/

# Short coverage-guided fuzz of the journal decoder, the CSV loaders,
# the lease-ledger scanner and the packed-plane wire decoder (go test
# takes one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test ./internal/sweep -run '^$$' -fuzz 'FuzzJournalScan$$' -fuzztime 5s
	$(GO) test ./internal/sweep -run '^$$' -fuzz 'FuzzReadCSV$$' -fuzztime 5s
	$(GO) test ./internal/dist -run '^$$' -fuzz 'FuzzLedgerScan$$' -fuzztime 5s
	$(GO) test ./internal/dist -run '^$$' -fuzz 'FuzzUnpackPlanes$$' -fuzztime 5s

bench:
	$(GO) test -bench=. -benchmem

# Row-evaluation benchmark: measures every engine's batched row
# evaluation over the study grid and archives the numbers in
# BENCH_sweep.json (schema documented in README.md).
# bench-smoke is the quick variant: a 27-config grid, one iteration,
# stdout only — a sanity check that the harness still runs.
bench-sweep:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

bench-smoke:
	$(GO) run ./cmd/benchsweep -quick -o -

# Per-cell throughput gate: re-measure the round and pipeline engines
# and fail if either runs more than 25% slower per cell than the
# committed BENCH_sweep.json ledger.
bench-gate:
	$(GO) run ./cmd/benchsweep -engines round,pipeline -budget 3s -gate BENCH_sweep.json

# End-to-end study benchmark (cmd/benche2e, declared in
# BENCHMARK.json): one untraced 15 s run of each workload at seed SEED,
# printing each run's result line, the JSON object the benchmark ends
# its output with. A workload's log goes to .bench_build/. Compare the
# lines with cmd/benche2e/baseline.json; not a CI gate, because
# absolute times on shared runners are too noisy.
SEED ?= 1

bench-e2e:
	@mkdir -p .bench_build
	@for w in round-library round-node round-fleet-ha pipeline-fleet-ha; do \
		log=.bench_build/bench-e2e-$$w.log; \
		out=$$(bash cmd/benche2e/run.sh --workload $$w --seed $(SEED) --seconds 15 --trace 0 2>$$log) || \
			{ tail -n 20 $$log; exit 1; }; \
		echo "$$w $$(echo "$$out" | tail -n 1)"; \
	done

# Observer-overhead gates: the disabled (no-op) observer must add less
# than 5% to the sweep hot path, and the full distributed-tracing path
# (trace writer + span context + flight recorder) less than 10%. The
# assertions are env-gated so plain `go test ./...` stays
# timing-independent.
bench-obs:
	GPUSCALE_BENCH_OBS=1 $(GO) test -run 'TestNopObserverOverhead|TestTracedSweepOverhead' -v ./internal/sweep/
	$(GO) test -bench 'BenchmarkSweep(SingleKernelFullGrid|NopObserver)$$' -benchmem ./
