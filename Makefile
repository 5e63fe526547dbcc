# CI entry points for the Peach* reproduction. `make ci` is the full gate;
# the individual targets are what it runs. `make check` is the fast
# pre-commit gate: build + vet + lint + race + the hot-path allocation
# guard + the docs gate.

GO ?= go

.PHONY: ci check build vet lint test race soak fuzz alloc-guard docs-check api-check api-snapshot bench-parallel bench-hotpath bench-fleetnet bench-sched clean

ci: build vet lint test race docs-check api-check soak

check: build vet lint race alloc-guard docs-check api-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see internal/analysis): detsource,
# rnggate, hotalloc, snapfields and atomicmix over every package. The
# suite also self-applies inside `go test` (TestLintSelfClean), so a
# violation turns both lint and test red.
lint:
	$(GO) run ./cmd/peachlint ./...

test:
	$(GO) test ./...

# The parallel campaign runner and the session API must be data-race
# free: every TestParallel* test (core fleet, public API, crash bank
# concurrency), the deadline-aware loop, the TestStart* session suite
# (cancellation mid-window, Stop during a mesh sync exchange,
# double-Stop/Wait idempotence, concurrent Snapshot), the adaptive
# scheduler's determinism/session suite (TestAdaptive*/TestSched*,
# fleet-published stats atomics), and the stateful-session fuzzing suite
# (TestSession* — sequence determinism, fleet-merged state counters,
# process-backed session boundaries — plus the TestDeepState conformance
# experiment) under -race. The fleetnet loopback suite (hub- and
# leaf-shaped mesh nodes, concurrent leaves) runs under -race in
# docs-check, which ci and check both include.
race:
	$(GO) test -race -run 'TestParallel|TestConcurrent|TestRunUntil|TestStart|TestAdaptive|TestSched|TestSession|TestDeepState' ./internal/core ./internal/crash ./internal/executor ./peachstar .

# Chaos soak over the real-target execution backend: a timed campaign
# against the bundled toy Modbus server while a chaos goroutine SIGKILLs
# the server out from under the supervisor. The session must complete, no
# coverage or corpus may be lost across restarts, and every captured
# reproducer must replay without diverging (see soak_test.go). The
# kill-and-resume storm does the same to the *fuzzer*: the peachstar CLI is
# repeatedly SIGKILLed mid-campaign and resumed from its durable checkpoint
# (see checkpoint_soak_test.go). Gated behind PEACHSTAR_SOAK so plain
# `go test ./...` stays fast and deterministic.
soak:
	PEACHSTAR_SOAK=1 $(GO) test -run 'TestSoakRealTarget|TestSoakKillResume' -count=1 -timeout 300s -v .

# Documentation gate: vet (which checks doc-comment placement pragmas),
# a package-doc presence check over every library package, and the
# fleetnet loopback suite — including the 2-leaf star convergence test,
# the 3-node mesh partition/heal convergence test, and the
# session-lifecycle regression tests — under -race (the protocol and
# topologies documented in ARCHITECTURE.md must actually hold).
docs-check:
	@$(GO) vet ./...
	@fail=0; \
	for dir in internal/backoff internal/checkpoint internal/core internal/corpus \
	           internal/coverage internal/crash internal/datamodel internal/executor \
	           internal/fleetnet internal/mem internal/mutator internal/pit \
	           internal/rng internal/sandbox internal/session internal/bench \
	           internal/analysis \
	           internal/targets peachstar; do \
	  pkg=$$(basename $$dir); \
	  if ! grep -l "^// Package $$pkg " $$dir/*.go >/dev/null 2>&1; then \
	    echo "docs-check: package $$dir has no '// Package $$pkg' doc comment"; fail=1; \
	  fi; \
	done; \
	test -f ARCHITECTURE.md || { echo "docs-check: ARCHITECTURE.md missing"; fail=1; }; \
	grep -q "Scheduler & distillation" ARCHITECTURE.md 2>/dev/null \
	  || { echo "docs-check: ARCHITECTURE.md lost the 'Scheduler & distillation' section"; fail=1; }; \
	grep -q "Session fuzzing" ARCHITECTURE.md 2>/dev/null \
	  || { echo "docs-check: ARCHITECTURE.md lost the 'Session fuzzing' section"; fail=1; }; \
	grep -q "Durable checkpoints" ARCHITECTURE.md 2>/dev/null \
	  || { echo "docs-check: ARCHITECTURE.md lost the 'Durable checkpoints' section"; fail=1; }; \
	grep -q "Static analysis" ARCHITECTURE.md 2>/dev/null \
	  || { echo "docs-check: ARCHITECTURE.md lost the 'Static analysis' section"; fail=1; }; \
	exit $$fail
	$(GO) test -race ./internal/fleetnet

# Allocation-regression guard: the steady-state Peach* exec path must stay
# within the per-exec allocation budget (see hotpath_test.go).
alloc-guard:
	$(GO) test -run 'TestSteadyStateExecAllocBudget' -v .

# Public-API gate: the exported peachstar surface must match the golden
# snapshot (api/peachstar.golden) and every exported symbol must carry a
# doc comment. A deliberate API change is reviewed by regenerating the
# golden with `make api-snapshot` and reading the diff in the commit.
api-check:
	$(GO) run ./cmd/apicheck

api-snapshot:
	$(GO) run ./cmd/apicheck -update

# Short native-fuzz smoke runs over the crack/generate round-trip targets,
# the campaign-checkpoint decoder (truncated, corrupt, and
# non-minimal-varint envelopes must be rejected with errors, never panics),
# the fleetnet frame decoders (network bytes: errors, never panics, no
# allocation past the frame and remaining-bytes caps) and the Pit parser
# (user files: errors, never panics, and accepted models generate).
fuzz:
	$(GO) test ./internal/datamodel -fuzz 'FuzzCrack$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/datamodel -fuzz 'FuzzGenerate$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/datamodel -fuzz 'FuzzCrackSeedCorpusBytes$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/session -fuzz 'FuzzSequenceCodec$$' -fuzztime 10s -run XXX
	$(GO) test . -fuzz 'FuzzCheckpointDecode$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/fleetnet -fuzz 'FuzzFrameDecode$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/pit -fuzz 'FuzzParseDocument$$' -fuzztime 10s -run XXX

# Serial-vs-sharded throughput on libmodbus (the BENCH_parallel.json rows).
bench-parallel:
	$(GO) test -bench 'BenchmarkParallelWorkers' -benchtime 50000x -run XXX .

# Execution hot-path measurement: the BENCH_hotpath.json fields for the
# libmodbus Peach* loop. One op is one execution, so ns/op is ns/exec,
# B/op is bytes/exec, allocs/op is allocs/exec, and execs/s is reported
# alongside. Copy into the "after" slot of BENCH_hotpath.json when
# recording a hot-path change. The per-scan microbenchmarks live in
# internal/coverage (word-level vs byte-reference).
bench-hotpath:
	$(GO) test -bench 'BenchmarkHotpathLibmodbus' -benchtime 100000x -benchmem -run XXX .

# Fleetnet sync-window cost over TCP loopback: emits the
# BENCH_fleetnet.json measurement fields (per-window latency/bytes, the
# empty-window protocol floor, and the full-resync reconnect cost) at both
# the tight 256-exec window and the default 1024, plus the 3-node
# hub-less mesh round cost (-mesh).
bench-fleetnet:
	$(GO) run ./cmd/benchfleetnet -window 256
	$(GO) run ./cmd/benchfleetnet -window 1024
	$(GO) run ./cmd/benchfleetnet -mesh -window 1024

# Static vs adaptive scheduler at equal budget and seed on four protocol
# targets: emits the BENCH_sched.json measurement fields (edges, paths,
# corpus size, distillations, ns/exec per configuration) as JSON on
# stdout. Paste into the "measurements" slot of BENCH_sched.json when
# recording a scheduler change.
bench-sched:
	$(GO) run ./cmd/benchsched

clean:
	$(GO) clean -testcache
