# Verification targets for the ttdc reproduction. `make check` is the
# tier-1 gate: vet + build + domain lint + full test suite + race
# detector over every package.

GO ?= go

.PHONY: check vet build vet-perfbench lint lint-alloc lint-sarif lint-bench test race race-conc race-sim race-sim-par fuzz bench bench-serve bench-scale benchall serve

check: vet build vet-perfbench lint lint-alloc test race race-conc race-sim race-sim-par

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The repository benchmark (_perfbench, see BENCHMARK.json) is a module of
# its own that replaces repro with this tree, so `build` and `vet` above
# never compile it. Vet it here, offline as _perfbench/run.sh builds it,
# so removing or changing an API it calls fails the gate, not the
# benchmark run.
vet-perfbench:
	cd _perfbench && GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off $(GO) vet ./...

# The domain linter (see internal/lint): reproducibility,
# exact-arithmetic, and concurrency invariants, plus gofmt cleanliness
# over the whole tree (including testdata fixtures, which plain
# `go fmt ./...` skips). The baseline is the ratchet: it ships empty and
# absorbs nothing today; accepted debt would be recorded there with
# `-write-baseline`, and entries that no longer match fail the run so
# fixed findings cannot linger in the file.
lint:
	$(GO) run ./cmd/ttdclint -baseline lint-baseline.json ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# The hot-path allocation contracts alone (//ttdc:hotpath — see DESIGN.md
# §15): a fast loop when annotating warm-path functions. `make lint`
# already runs these three analyzers with the rest of the suite; this
# names the gate in `make check` output. The runtime half of the same
# contract is the generated alloc_gate_test.go files, which `make test`
# runs and ttdclint's tests drift-check.
lint-alloc:
	$(GO) run ./cmd/ttdclint -enable allocflow,boxing,growloop ./...

# SARIF 2.1.0 report for code-scanning UIs (upload lint.sarif).
lint-sarif:
	$(GO) run ./cmd/ttdclint -baseline lint-baseline.json -sarif lint.sarif ./...

test:
	$(GO) test ./...

# The whole suite is race-clean, so new concurrent packages are covered
# by default rather than opt-in.
race:
	$(GO) test -race ./...

# The concurrent subsystems get a named race gate of their own: `race`
# already covers them, but this target keeps them explicit in `make check`
# output and gives a fast local loop (`make race-conc`) when touching the
# engine, the caches, the serving tier's forwarding and validator table,
# or a schedule's node views, which the first reader derives. The
# concurrent-revalidation, concurrent-schedule-request (one singleflight
# over Construct and both encodings) and concurrent-first-use tests run
# ten times over.
race-conc:
	$(GO) test -race ./internal/core ./internal/engine ./internal/schedcache ./internal/serve ./internal/shard
	$(GO) test -race -count=10 -run TestConcurrentRevalidations ./internal/serve
	$(GO) test -race -count=10 -run TestConcurrentScheduleRequests ./internal/serve
	$(GO) test -race -count=10 -run TestNodeViewsConcurrentFirstUse ./internal/core

# The struct-of-arrays simulator fast path shares pooled scratch and
# immutable kernels across the engine worker pool; this gate runs the
# differential matrix (fast path vs the test-only reference loops, byte
# for byte) and the kernel-sharing campaigns under the race detector.
race-sim:
	$(GO) test -race ./internal/sim/... ./internal/engine/...

# The intra-run sharded kernels: word-range workers writing pooled scratch
# with no locks. The multi-word differential test (shards=1 vs N byte
# identity at n=130) under the race detector is the proof that the ranges
# really are disjoint; `race-sim` covers the package too, but this names
# the gate and gives a fast loop when touching shard.go or the kernels.
race-sim-par:
	$(GO) test -race -run 'Shard' ./internal/sim/

# Short smoke runs of every fuzz target (seeds always run under plain
# `go test`; this explores a little beyond them).
fuzz:
	$(GO) test -fuzz FuzzDecodeSchedule -fuzztime 10s .
	$(GO) test -fuzz FuzzScheduleFromSlotSets -fuzztime 10s .
	$(GO) test -fuzz FuzzCacheGet -fuzztime 10s ./internal/schedcache
	$(GO) test -fuzz FuzzSimEquivalence -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzRNGScan -fuzztime 10s ./internal/stats
	$(GO) test -fuzz FuzzDecodeWire -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzScheduleRequest -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzVerifierDifferential -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeCampaign -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzIgnoreDirective -fuzztime 10s ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzHotpathDirective -fuzztime 10s ./internal/lint

# Benchmarks with -benchmem, captured as the machine-readable perf
# trajectory: BENCH_engine.json (serial-vs-parallel Workers1/WorkersMax
# pairs for the sweep and campaign engines, cold schedule builds, and the
# serving tier's cold artifact pass over the ring lattice) and
# BENCH_core.json (naive-vs-prefix-cached kernel pairs for the
# Requirement/throughput verifiers).
# Time-based -benchtime: fixed tiny iteration counts (3x) made the
# Workers1/WorkersMax ratio a noise measurement — one GC pause in a
# 3-iteration run moved the pair by ±20%. Non-gating: runs alongside
# `make check`, not inside it.
bench: lint-bench bench-serve
	$(GO) test -run xxx -bench . -benchmem -benchtime 1s ./internal/engine ./internal/schedcache ./internal/serve \
		| $(GO) run ./cmd/ttdcbench -o BENCH_engine.json
	$(GO) test -run xxx -bench . -benchmem -benchtime 1s ./internal/core \
		| $(GO) run ./cmd/ttdcbench -o BENCH_core.json
	$(GO) test -run xxx -bench . -benchmem -benchtime 1s ./internal/sim \
		| $(GO) run ./cmd/ttdcbench -o BENCH_sim.json

# The TTDC_SCALE campaign: the n=10^5 convergecast grid and the n=10^6
# saturation frame, one iteration each (the runs are seconds long and
# deterministic — averaging adds minutes, not information), merged into
# BENCH_sim.json next to the standard entries. Each entry records
# GOMAXPROCS, NumCPU, and the process peak RSS (VmHWM) in its "extra" map,
# and ttdcbench derives the Shards1/ShardsMax speedup pairs. Non-gating,
# like `bench`.
bench-scale:
	TTDC_SCALE=1 $(GO) test -run xxx -bench Scale -benchmem -benchtime 1x -timeout 60m ./internal/sim \
		| $(GO) run ./cmd/ttdcbench -merge -o BENCH_sim.json

# End-to-end serving-tier load: a 3-peer in-process consistent-hash ring
# driven by the ttdcload generator (zipf key mix, ETag revalidation, wire
# and JSON bodies), captured as BENCH_serve.json with client-observed
# hit/miss/304 counts and latency quantiles.
bench-serve:
	$(GO) run ./cmd/ttdcload -inproc 3 -requests 12000 -c 16 -seed 42 -o BENCH_serve.json

# Linter self-benchmarks: loader (serial and parallel), call-graph +
# summary fixpoint, per-analyzer wall time, and the full LintAll path,
# captured as BENCH_lint.json so analyzer regressions show up in the perf
# trajectory alongside the engine and kernel numbers.
lint-bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1s ./internal/lint \
		| $(GO) run ./cmd/ttdcbench -o BENCH_lint.json

# One pass over every package's benchmarks, for spot checks.
benchall:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

serve:
	$(GO) run ./cmd/ttdcserve -addr :8080
