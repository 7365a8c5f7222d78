GO ?= go

.PHONY: all build test vet race lint lint-json check chaos chaos-migrate chaos-group chaos-overload bench bench-smoke bench-planner bench-wire fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs qcpa-lint, the repo's own go/analysis suite: the four
# per-package analyzers (detrange, detsource, lockorder, atomicfield)
# plus the four whole-program call-graph analyzers (lockgraph, ctxflow,
# leakcheck, viewmutate) — see DESIGN.md §9. Analyzers run in parallel
# (bounded by GOMAXPROCS); output order is deterministic. Zero findings
# is the contract; waivers are //qcpa:* comments with a stated reason.
lint:
	$(GO) run ./cmd/qcpa-lint ./...

# lint-json emits the findings as a JSON array (empty run prints []).
# CI diffs this against the committed empty baseline so any new finding
# fails the build with a readable annotation.
lint-json:
	$(GO) run ./cmd/qcpa-lint -json ./...

# check is the CI gate: vet, lint, build, then the full suite under the
# race detector (the parallel ROWA fan-out and the server are concurrent
# by construction).
check: vet lint build race

# chaos runs the fault-tolerance acceptance tests under the race
# detector: backends killed and revived while a mixed workload runs,
# asserting zero failed requests and bit-identical replicas after
# catch-up. Kept separate from check so its timing-sensitive load loop
# gets a dedicated timeout.
chaos:
	$(GO) test -race -run 'Chaos|Recover|Failover|RedoLog' -timeout 120s ./internal/cluster/

# chaos-migrate runs the online-reallocation suite under the race
# detector: live migrations and resizes with concurrent traffic, delta
# capture under injected writes, and a backend killed mid-copy (the
# migration must abort cleanly or complete — never leave a partial
# replica serving).
chaos-migrate:
	$(GO) test -race -run 'MigrateLive|ResizeLive|ResizeSameCount' -count=2 -timeout 120s ./internal/cluster/

# chaos-group runs the group-commit suite under the race detector:
# backends killed mid-round while concurrent writers stream batched
# ROWA rounds (no half-committed group may ever become visible), a
# pinned snapshot view held across a live-migration cutover, and the
# same workload fanned out with different worker counts (replicas must
# stay bit-identical either way).
chaos-group:
	$(GO) test -race -run 'GroupCommit|GroupChaos|ApplyRound|LongScan|PinnedView' -count=2 -timeout 120s ./internal/cluster/ ./internal/sqlmini/

# chaos-overload runs the wire-path overload suite under the race
# detector: a request swarm at several times admission capacity, every
# request resolving as exactly one of success, typed shed (with a
# retry-after hint), or typed drain — zero silent drops — plus graceful
# drain with goroutine-leak and out-of-order pipelining checks.
chaos-overload:
	$(GO) test -race -run 'Overload|Drain|Pipelin|TooLarge|Oversized|Deadline|Circuit|Retr|Breaker|ConnLimit' -count=2 -timeout 120s ./internal/server/

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-smoke compiles and runs every benchmark for exactly one
# iteration across all packages, so benchmark code can never rot. Wired
# into CI; the recorded baselines come from `qcpa-bench -json` instead.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-planner runs the planner micros at real benchtime with
# -benchmem: the two acceptance micros (join ordering must beat textual
# order; a plan-cache hit must allocate less than half of a cold build —
# the ratio is pinned by TestPlanCacheHitAllocations) and the top-k
# sink on TPC-App's newProducts read.
bench-planner:
	$(GO) test -bench 'SqlminiJoinOrder|PlanCacheHit' -benchmem -run TestPlanCacheHitAllocations ./internal/bench/
	$(GO) test -bench 'SqlminiTopK' -benchmem -run '^$$' .

# bench-wire compares the wire protocols at equal admission limits —
# the same rotating point-query load through v1 newline-JSON, v2 binary
# frames, and v2 prepared handles — then probes v2 connection scale up
# to the fd limit. The full run (recorded into BENCH_*.json baselines
# via `qcpa-bench -json`) is the acceptance gate for the v2 speedup.
bench-wire:
	$(GO) run ./cmd/qcpa-bench -wire

# fuzz-smoke runs each wire-protocol fuzz target briefly against its
# seed corpus plus a few seconds of fresh inputs: the frame decoder and
# the v1 line reader must never panic on arbitrary bytes. CI runs this
# on every push; longer campaigns can raise -fuzztime locally.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzReadLine -fuzztime 5s ./internal/server/

clean:
	$(GO) clean ./...
