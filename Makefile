GO ?= go
DATE := $(shell date +%F)
# Newest committed scale-ladder record, the bench-ladder baseline.
LADDER_BASELINE ?= $(lastword $(sort $(wildcard BENCH_LADDER_*.json)))
# bench-pair: the revision to compare the working tree against, and where
# its throw-away checkout goes.
PARENT ?= HEAD~1
PAIR_TREE ?= /tmp/hwatch-bench-pair-parent

.PHONY: all build test race lint lint-json vet bench bench-pair \
	bench-ladder bench-ladder-check fuzz-smoke poison chaos server-e2e

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static-analysis gate, every lint once: formatting, the stock vet suite,
# and the repo's own hwatchvet analyzers (detrand, pktown, schedclosure,
# lockscope, hookpure, ctxflow, directive plus the two standard passes go
# vet lacks, the SSA-backed nilness and unusedwrite). ctxflow carries the
# twin check: a non-test package that declares both X and XContext fails
# the gate. A stale //hwatchvet:allow is a diagnostic, so a clean run also
# proves zero stale allows. CI's static-analysis job runs exactly this.
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

# The micro-benchmarks that have no twin among bench/'s layer drivers
# (heap oracle, port throughput, filter chain, byte-mode AQMs, rwnd rewrite,
# GC sweep, token bucket). Interactive; nothing gates on them.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# The time-and-memory gate: build ./bench at $(PARENT) and in the working
# tree, run every BENCHMARK.json workload on both in five interleaved pairs
# and fail when a run is wrong or a median is worse than the parent's by
# more than the bound BENCHMARK.json declares (~20 min). CI's bench-pair
# job runs exactly this against the PR base.
bench-pair:
	@git worktree remove --force $(PAIR_TREE) 2>/dev/null || true
	git worktree add --detach $(PAIR_TREE) $(PARENT)
	$(GO) run ./cmd/benchdiff -pair $(PAIR_TREE); status=$$?; \
		git worktree remove --force $(PAIR_TREE); exit $$status

# Run the full scale ladder (1x/10x/100x dumbbells plus both 10k-flow
# incast storms, single-loop and sharded: ten rungs) and record the
# trajectory as BENCH_LADDER_$(DATE).json. Commit the record alongside any
# change that moves the model's numbers, replacing the previous one.
bench-ladder:
	$(GO) run ./cmd/benchdiff -out BENCH_LADDER_$(DATE).json

# Re-run all ten rungs once and fail when one differs from the committed
# record in a column that repeats: flows-done, fct-ms and events exactly,
# B/op beyond 10 %, allocs/op beyond 1 %. ns/op and events/s are printed,
# never gated. CI's bench-ladder job runs exactly this.
bench-ladder-check:
	@test -n "$(LADDER_BASELINE)" || { echo "no BENCH_LADDER_*.json baseline found"; exit 1; }
	$(GO) run ./cmd/benchdiff -check -baseline $(LADDER_BASELINE) -out /tmp/bench_ladder_check.json

# Short fuzz smoke over every fuzz target with a committed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzChecksumPatchChain -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzPacketPoolZeroed -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzFlowSlab -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEventSlab -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzReorderBuffer -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzSpecCanonicalDigest -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzNumberArrayDecode -fuzztime 10s ./internal/server

# Chaos gate: the fault-injection goldens, the recurring-chaos shard
# parity suite, and both example schedules under the recovery observer.
chaos: build
	$(GO) test -run 'TestGoldenDigests|TestRecurringChaosShardParity|TestChaosRunRecoversAndRepeats' \
		-count=1 ./internal/experiments ./internal/scenario
	$(GO) run ./cmd/hwatchsim -exp scheme -scheme hwatch \
		-faults examples/chaos_recurring_flap.json -check -digest
	$(GO) run ./cmd/hwatchsim -exp scheme -scheme hwatch \
		-faults examples/chaos_reorder_jitter.json -check -digest

# hwatchd gate: the end-to-end server suite (golden parity, cache hits
# served as the one stored body, single-flight dedup, backpressure,
# cancellation) under the race detector. CI's hwatchd-e2e job runs this plus a live daemon-vs-CLI
# digest cross-check.
server-e2e:
	$(GO) test -race ./internal/server/...

# Pool-poisoning build: released packets and engine event slots are
# scribbled with sentinels, so any use-after-release flips a digest, an
# assertion or panics.
poison:
	$(GO) test -tags poolpoison ./internal/sim ./internal/netem ./internal/tcp ./internal/core ./internal/experiments
