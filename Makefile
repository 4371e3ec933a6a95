GO ?= go
DATE := $(shell date +%F)
# Newest committed BENCH_*.json is the regression baseline (seed records
# document history and are not enforced; BENCH_LADDER_*.json belongs to the
# ladder suite below).
BASELINE ?= $(lastword $(sort $(filter-out %_seed.json BENCH_LADDER_%,$(wildcard BENCH_*.json))))
# Newest committed scale-ladder record, the bench-ladder baseline.
LADDER_BASELINE ?= $(lastword $(sort $(wildcard BENCH_LADDER_*.json)))

.PHONY: all build test race lint lint-json vet bench bench-baseline bench-check \
	bench-ladder bench-ladder-check fuzz-smoke poison chaos server-e2e

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static-analysis gate: formatting, the stock vet suite, and the repo's
# own hwatchvet analyzers (detrand, pktown, schedclosure, lockscope,
# hookpure, ctxflow, directive plus the curated vendored passes, including
# the SSA-backed nilness and unusedwrite). ctxflow carries the twin check:
# a non-test package that declares both X and XContext fails the gate. A
# stale //hwatchvet:allow is a diagnostic, so a clean run also proves zero
# stale allows. CI's static-analysis job runs exactly this.
lint:
	@test -z "$$(gofmt -l . | grep -v '^vendor/')" || { gofmt -l . | grep -v '^vendor/'; echo "gofmt: files need formatting"; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/hwatchvet ./...

# Same suite, one merged JSON document on stdout (exit 1 on any finding)
# for editor integrations and CI annotations.
lint-json:
	$(GO) run ./cmd/hwatchvet -json ./...

vet:
	$(GO) run ./cmd/hwatchvet ./...

race:
	$(GO) test -race ./...

# Quick interactive benchmark pass (no JSON, sane benchtime for micros).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkPort|BenchmarkShim|BenchmarkChecksum' \
		-benchmem ./internal/sim ./internal/netem ./internal/core

# Record a new baseline as BENCH_$(DATE).json (commit it alongside the
# change that moved the numbers).
bench-baseline:
	$(GO) run ./cmd/benchdiff -out BENCH_$(DATE).json

# Re-run the suite and fail on >10% ns/op, >10% B/op or >0.1% allocs/op
# regression against the newest committed baseline. This is what CI's
# bench-regress job runs.
bench-check:
	@test -n "$(BASELINE)" || { echo "no BENCH_*.json baseline found"; exit 1; }
	$(GO) run ./cmd/benchdiff -check -baseline $(BASELINE) -out /tmp/bench_check.json

# Run the full scale ladder (1x/10x/100x dumbbells plus both 10k-flow
# incast storms) and record the trajectory as BENCH_LADDER_$(DATE).json.
# Commit the record alongside any change that moves the numbers.
bench-ladder:
	$(GO) run ./cmd/benchdiff -suite ladder -out BENCH_LADDER_$(DATE).json

# Re-run the affordable rungs (1x and 10x, plus the sharded 10x so the
# shard dimension is tracked on every push; CI wall-clock budget) and fail
# on regression against the newest committed ladder record. CI's
# bench-ladder job runs exactly this. The alloc threshold is looser than
# the main suite's: pool-refill jitter scales with the rungs' live flow
# sets (~0.3% observed), while a real per-packet or per-flow regression
# is orders of magnitude above 1%.
bench-ladder-check:
	@test -n "$(LADDER_BASELINE)" || { echo "no BENCH_LADDER_*.json baseline found"; exit 1; }
	$(GO) run ./cmd/benchdiff -suite ladder -bench 'BenchmarkLadder1x$$|BenchmarkLadder10x$$|BenchmarkLadder10xShards4$$' \
		-check -subset -alloc-threshold 0.01 -baseline $(LADDER_BASELINE) \
		-out /tmp/bench_ladder_check.json

# Short fuzz smoke over every fuzz target with a committed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzChecksumPatchChain -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzPacketPoolZeroed -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzFlowSlab -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEventSlab -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzReorderBuffer -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzSpecCanonicalDigest -fuzztime 10s ./internal/scenario

# Chaos gate: the fault-injection goldens, the recurring-chaos shard
# parity suite, and both example schedules under the recovery observer.
chaos: build
	$(GO) test -run 'TestGoldenDigests|TestRecurringChaosShardParity|TestChaosRunRecoversAndRepeats' \
		-count=1 ./internal/experiments ./internal/scenario
	$(GO) run ./cmd/hwatchsim -exp scheme -scheme hwatch \
		-faults examples/chaos_recurring_flap.json -check -digest
	$(GO) run ./cmd/hwatchsim -exp scheme -scheme hwatch \
		-faults examples/chaos_reorder_jitter.json -check -digest

# hwatchd gate: the end-to-end server suite (golden parity, cache hits,
# single-flight dedup, backpressure, cancellation) under the race
# detector. CI's hwatchd-e2e job runs this plus a live daemon-vs-CLI
# digest cross-check.
server-e2e:
	$(GO) test -race ./internal/server/...

# Pool-poisoning build: released packets and engine event slots are
# scribbled with sentinels, so any use-after-release flips a digest, an
# assertion or panics.
poison:
	$(GO) test -tags poolpoison ./internal/sim ./internal/netem ./internal/tcp ./internal/core ./internal/experiments
