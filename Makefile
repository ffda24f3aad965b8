# Local entry points matching the CI pipeline (.github/workflows/ci.yml):
# `make lint build race cover fuzz-smoke scenarios bench-smoke bench-check`
# is exactly what a PR must pass.

GO ?= go

# Coverage floors enforced by `make cover` and CI.
COVER_PKGS = repro/internal/scenario repro/internal/core repro/internal/mc \
	repro/internal/memo repro/internal/solvecache \
	repro/internal/variant repro/internal/packetized repro/internal/repeated \
	repro/internal/baseline repro/internal/rpc repro/internal/qmc \
	repro/internal/fault repro/internal/store repro/internal/config \
	repro/internal/atlas repro/internal/swapsim repro/internal/figures \
	repro/internal/sim repro/internal/chain repro/internal/agent \
	repro/internal/oracle repro/internal/gbm repro/internal/mathx \
	repro/internal/sweep repro/internal/timeline repro/internal/stats \
	repro/internal/dist repro/internal/htlc repro/internal/plot \
	repro/internal/utility repro/internal/game
COVER_MIN  = 80

# Pinned static-analysis toolchain versions (CI installs exactly these;
# `make lint` runs the tools only when they are already on PATH).
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: all build test race bench bench-smoke bench-json bench-rpc-json bench-check swapd-smoke chaos-smoke atlas-smoke pprof-smoke lint cover fuzz-smoke scenarios figures clean

all: lint build test

build:
	$(GO) build ./...

# -shuffle=on randomises test order every run, so inter-test state
# dependence cannot hide.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Full benchmark run (slow): every paper artifact plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One iteration per benchmark — the CI regression smoke.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Regenerate the benchmark baselines (commit the results; CI gates
# allocs/op against them): BENCH_mc.json for the Monte Carlo engine,
# BENCH_solve.json for the amortized solve engine.
bench-json:
	$(GO) test -bench='^BenchmarkMC_' -benchmem -run='^$$' . | $(GO) run ./tools/benchmc -o BENCH_mc.json \
		-note "Monte Carlo engine benchmark baseline; regenerate with make bench-json, CI gates allocs/op at 2x and hashes/op and events/op at any rise via make bench-check. Recorded with $$($(GO) env GOVERSION) $$($(GO) env GOOS)/$$($(GO) env GOARCH), GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}."
	@set -e; tmp=$$(mktemp); trap 'rm -f '$$tmp EXIT; \
	$(GO) test -bench='^BenchmarkFiguresFull$$' -benchmem -benchtime=1x -run='^$$' . > $$tmp; \
	$(GO) test -bench='^BenchmarkSolve_' -benchmem -benchtime=20x -run='^$$' . >> $$tmp; \
	$(GO) run ./tools/benchmc -o BENCH_solve.json \
		-note "Amortized solve engine baseline: BenchmarkFiguresFull once in its own cold process, the BenchmarkSolve_ suite at -benchtime=20x in a second one, so first-iteration warm-up does not reach the gated allocs/op; regenerate with make bench-json, CI gates allocs/op at 2x, evals/op, rate_evals/op and draws/op at any rise and BenchmarkFiguresFull wall time at 1.0s via make bench-check. Recorded with $$($(GO) env GOVERSION) $$($(GO) env GOOS)/$$($(GO) env GOARCH), GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)}." < $$tmp

# CI's bench-regression smoke (the bench-mc-regression job; the
# bench-solve-regression job is the pprof smoke): a short run of both
# suites must stay within 2x of the committed baselines' allocs/op,
# reported in one merged table (wall-clock is not gated — allocs are hardware-independent). The
# MC suite runs 0.2s per benchmark — enough iterations that one-time pool
# warm-up amortizes to zero against the zero-alloc path baseline. The
# convergence benchmarks' pathsratio is gated at 1.0x
# pseudo: no sampler may need more paths than pseudo, whose ratio is 1 by
# definition (sobol sits at ~0.065; the adaptive stop is deterministic per
# seed, so the gate cannot flake). A solve benchmark's work counters,
# evals/op (the t2 region scans' evaluation count), rate_evals/op (the
# exchange-rate scans' evaluation count) and draws/op (a simulation's
# normal draws), and BenchmarkMC_PathReused's hashes/op (SHA-256 per
# path) and events/op (scheduler events per path, over a fixed set of
# paths), are deterministic per tree and fail on any rise over their
# baseline. BenchmarkFiguresFull — the full 18-group
# artifact generation, run once in its own cold process — is the one
# wall-clock gate: 1.0s absolute, the sub-second reproduction promise with
# wide headroom over the ~0.6s measured baseline. The solve suite runs at
# a fixed 20 iterations in a second process, as in make bench-json, so a
# benchmark's one-time warm-up allocations amortize the same way on both
# sides of the gate.
bench-check:
	@set -e; tmp=$$(mktemp); trap 'rm -f '$$tmp EXIT; \
	$(GO) test -bench='^BenchmarkMC_' -benchmem -benchtime=0.2s -run='^$$' . > $$tmp; \
	$(GO) test -bench='^BenchmarkFiguresFull$$' -benchmem -benchtime=1x -run='^$$' . >> $$tmp; \
	$(GO) test -bench='^BenchmarkSolve_' -benchmem -benchtime=20x -run='^$$' . >> $$tmp; \
	$(GO) run ./tools/benchmc -against BENCH_mc.json,BENCH_solve.json -max-alloc-ratio 2 -max-paths-ratio 1.0 \
		-max-wall BenchmarkFiguresFull=1.0 < $$tmp
	@set -e; bindir=$$(mktemp -d); trap 'rm -rf '$$bindir EXIT; \
	$(GO) build -o $$bindir/swapd ./cmd/swapd; \
	$(GO) run ./tools/loadgen -spawn $$bindir/swapd -duration 5s -qps 1200 \
		-min-qps 500 -max-p99-ms 50 -require-coalesce; \
	$(GO) run ./tools/loadgen -spawn $$bindir/swapd -spawn-args "-resp-cache 16384" \
		-duration 4s -qps 400 -hot-frac 0.5 -hot-keys 8 -mc-runs 1000 -warm \
		-min-warm-hit 0.9 -warm-faster

# Regenerate the RPC-layer baseline (commit the result; see tools/loadgen).
# The hot-key + -warm run makes the artifact carry a cold row (results)
# and a warm row (warm): the same seeded stream replayed against the
# populated response cache. -resp-cache is sized above the stream's
# unique-key count so the replay measures hits, not LRU churn.
bench-rpc-json:
	@set -e; bindir=$$(mktemp -d); trap 'rm -rf '$$bindir EXIT; \
	$(GO) build -o $$bindir/swapd ./cmd/swapd; \
	$(GO) run ./tools/loadgen -spawn $$bindir/swapd -spawn-args "-resp-cache 16384" \
		-duration 10s -qps 800 -hot-frac 0.5 -hot-keys 8 -mc-runs 1000 -warm -o BENCH_rpc.json

# The quote daemon's acceptance gate (CI's swapd-smoke job): spawn swapd,
# drive it for 10s at 1200 QPS, and require >= 1000 sustained QPS, p99
# under 30ms, zero-ish errors and a non-zero coalescing hit rate.
swapd-smoke:
	@set -e; bindir=$$(mktemp -d); trap 'rm -rf '$$bindir EXIT; \
	$(GO) build -o $$bindir/swapd ./cmd/swapd; \
	$(GO) run ./tools/loadgen -spawn $$bindir/swapd -duration 10s -qps 1200 \
		-min-qps 1000 -max-p99-ms 30 -require-coalesce

# The chaos harness (CI's chaos-smoke job): build swapd with the race
# detector, record a fault-free digest run, then replay the same seeded
# request stream against a deliberately tiny admission controller with
# seeded faults (latency, injected errors, injected panics) and retrying
# clients. Gates: the daemon never crashes (loadgen fails if the child
# dies early or refuses to drain), shedding actually engages
# (-require-shed), goodput stays above a floor, p99 stays bounded, and
# every request that succeeded in both runs solved to byte-identical
# results (-digest-against) — faults may delay or shed work, never
# corrupt it.
chaos-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	$(GO) build -race -o $$dir/swapd ./cmd/swapd; \
	echo "chaos-smoke: fault-free digest run"; \
	$(GO) run ./tools/loadgen -spawn $$dir/swapd -duration 4s -qps 300 -seed 7 \
		-dup-every 20 -dup-burst 8 -mc-runs 5000 -workers 16 \
		-digest-out $$dir/digest.json -max-error-rate 0; \
	echo "chaos-smoke: seeded-fault run against a saturated daemon"; \
	$(GO) run ./tools/loadgen -spawn $$dir/swapd \
		-spawn-args "-max-inflight 4 -queue-depth 4 -queue-wait 5ms -fault-seed 42 -fault rpc.latency=0.05:5ms,rpc.error=0.03,rpc.panic=0.01" \
		-duration 6s -qps 300 -seed 7 -dup-every 20 -dup-burst 8 -mc-runs 5000 -workers 16 \
		-chaos -digest-against $$dir/digest.json \
		-require-shed -min-goodput 30 -max-p99-ms 1000 -max-error-rate 0.25

# The scenario-universe atlas's incrementality gate (CI's atlas-smoke
# job): sweep a 1536-cell universe (-samples 128: three times the solve
# cache's 512 models, so it flushes mid-sweep) with its Monte Carlo
# validation (-mc -runs 1000) twice against one persistent store, both
# at -workers 1. The second sweep must load every cell from disk
# (-max-solved 0 fails the run if even one cell re-solves), produce
# byte-identical artifacts, and finish at least 10x faster than the cold
# sweep — the whole point of content-addressed results. The validation
# keeps the cold sweep's cost in solving and simulating rather than in
# process start, which the warm sweep shares. Between the two, an
# uncached analytic sweep and an uncached -mc sweep of the same cells at
# the default worker count must each print the cold sweep's solve-work
# line: the scan totals count every model's work, including what a
# worker still solves on a model after a flush dropped it, and a cell's
# Monte Carlo validation reads the model its solve read, so a flush
# between the two cannot rebuild it and repeat its scans.
atlas-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	$(GO) build -o $$dir/scenarios ./cmd/scenarios; \
	sweep="atlas -samples 128 -mc -runs 1000 -workers 1 -store $$dir/store"; \
	echo "atlas-smoke: cold sweep"; \
	start=$$(date +%s%N); \
	one=$$($$dir/scenarios $$sweep -out $$dir/cold -cache-stats | grep '^solve work:'); \
	cold_ms=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	echo "atlas-smoke: uncached analytic sweep at the default worker count"; \
	all=$$($$dir/scenarios atlas -samples 128 -cache-stats | grep '^solve work:'); \
	echo "atlas-smoke: uncached -mc sweep at the default worker count"; \
	mc=$$($$dir/scenarios atlas -samples 128 -mc -runs 1000 -cache-stats | grep '^solve work:'); \
	echo "  cold, -workers 1: $$one"; echo "  uncached, default: $$all"; echo "  uncached -mc, default: $$mc"; \
	if [ -z "$$one" ] || [ "$$one" != "$$all" ] || [ "$$one" != "$$mc" ]; then \
		echo "atlas-smoke: solve work differs between worker counts" >&2; exit 1; fi; \
	echo "atlas-smoke: warm sweep (must solve 0 cells)"; \
	start=$$(date +%s%N); \
	$$dir/scenarios $$sweep -out $$dir/warm -max-solved 0; \
	warm_ms=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	cmp $$dir/cold/atlas_cells.json $$dir/warm/atlas_cells.json; \
	cmp $$dir/cold/atlas_frontier.txt $$dir/warm/atlas_frontier.txt; \
	echo "atlas-smoke: cold $${cold_ms}ms, warm $${warm_ms}ms"; \
	if [ $$(( warm_ms * 10 )) -gt $$cold_ms ]; then \
		echo "atlas-smoke: warm sweep is not 10x faster than cold" >&2; exit 1; fi

# Profiling smoke: run one solve benchmark under -cpuprofile and assert
# the profile came out non-empty, so the profiling workflow every perf PR
# leans on cannot silently rot (CI runs this in bench-solve-regression).
pprof-smoke:
	$(GO) test -bench='^BenchmarkSolve_ScenarioSolves$$' -benchtime=1x -run='^$$' -cpuprofile /tmp/solve.prof .
	@test -s /tmp/solve.prof || { echo "pprof-smoke: empty cpu profile" >&2; exit 1; }
	$(GO) tool pprof -top -nodecount=3 /tmp/solve.prof >/dev/null
	@echo "pprof-smoke: profile ok"

# gofmt + vet always run; staticcheck and govulncheck run when installed
# (CI's lint-static job installs the pinned versions above and runs them
# unconditionally, so a missing local install cannot hide a finding).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck -checks=SA ./...; \
		else echo "lint: staticcheck not on PATH, skipped (CI runs $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not on PATH, skipped (CI runs $(GOVULNCHECK_VERSION))"; fi

# Per-package coverage, failing when a gated package drops below COVER_MIN%.
# go test's status is checked before the gate so a red suite cannot hide
# behind a green coverage line.
cover:
	@$(GO) test -coverprofile=cover.out ./... > cover.txt; \
		status=$$?; cat cover.txt; \
		if [ $$status -ne 0 ]; then exit $$status; fi
	@for pkg in $(COVER_PKGS); do \
		pct=$$(awk -v p="$$pkg" '$$1 == "ok" && $$2 == p { for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { gsub(/%/, "", $$i); print $$i } }' cover.txt); \
		if [ -z "$$pct" ]; then echo "no coverage line for $$pkg" >&2; exit 1; fi; \
		if awk -v pct="$$pct" -v min=$(COVER_MIN) 'BEGIN { exit !(pct < min) }'; then \
			echo "coverage gate: $$pkg at $$pct% is below $(COVER_MIN)%" >&2; exit 1; fi; \
		echo "coverage gate: $$pkg $$pct% >= $(COVER_MIN)%"; \
	done

# 10-second smoke of each fuzz target (also run by CI).
fuzz-smoke:
	$(GO) test -fuzz=FuzzLognormal -fuzztime=10s -run='^$$' ./internal/dist
	$(GO) test -fuzz=FuzzScenarioJSON -fuzztime=10s -run='^$$' ./internal/scenario
	$(GO) test -fuzz=FuzzRPCRequest -fuzztime=10s -run='^$$' ./internal/rpc
	$(GO) test -fuzz=FuzzSobol -fuzztime=10s -run='^$$' ./internal/qmc
	$(GO) test -fuzz=FuzzHasher -fuzztime=10s -run='^$$' ./internal/htlc

# Batch-run every scenario preset across every registered variant (fails
# when any variant's MC validation disagrees with its analytic solve).
scenarios:
	$(GO) run ./cmd/scenarios -run all -variant all

# Regenerate every paper artifact (ASCII to stdout, CSV under out/).
figures:
	$(GO) run ./cmd/figures -csv out

# Remove every local build artifact .gitignore shields from commits:
# generated figures, coverage output, compiled test binaries and profiles.
clean:
	rm -rf out cover.out cover.txt *.test *.prof *.pprof profile.out bench.out
