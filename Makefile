# AdaVP reproduction — build/test entry points.
#
#   make build        compile every package and command
#   make test         run the full test suite
#   make race         run the concurrency-sensitive packages under the race detector
#   make vet          static analysis (go vet)
#   make lint         project-specific analyzers (cmd/adavplint): determinism,
#                     hot-path allocations, band safety, goroutine leaks, pool pairing
#   make escapecheck  compiler escape-analysis gate: fail if any
#                     //adavp:hotpath function gains a heap escape not in
#                     the committed ESCAPES.baseline
#   make cover        whole-tree coverage, failing below the COVER_FLOOR baseline
#   make perfbench-test run the benchmark module's own tests (perfbench/ is a
#                     nested module that `make test` does not reach)
#   make bench-json   run the pixel-pipeline benchmark harness, write BENCH_pixel.json
#   make loadgen-bench regenerate the committed serving-layer SLO artifact
#                     (BENCH_serve.json) from the canonical loadgen matrix
#   make loadgen-smoke run the loadgen bench matrix to a throwaway file with
#                     the schema check on — proves the harness end to end
#   make soak         bounded chaos soak under the race detector: same-seed sim
#                     soak pair (byte parity) then a wall-clock live soak, both
#                     ending in machine-checked invariant reports
#   make check        everything CI runs: build + vet + lint + escapecheck +
#                     test + race + a 1-iteration bench-json smoke (catches
#                     harness rot without paying bench time); the test suite
#                     includes the long-virtual-horizon chaos soak

GO ?= go

# Coverage floor for `make cover` (total statement coverage, percent). The
# suite sits at ~82%; the floor trails it so honest refactors don't flap,
# while a PR that lands a subsystem without tests fails the gate.
COVER_FLOOR ?= 78.0

.PHONY: build test race vet lint escapecheck cover check perfbench-test bench-json bench-json-smoke loadgen-bench loadgen-smoke soak clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Packages with real concurrency: the live pipeline and its supervision
# layer (including the staged cross-frame pipeline — prefetch/reorder under
# concurrent cancellation), the fault injectors, the observability registry
# (scraped while the pipeline writes), plus everything that drives or
# implements the par.Rows/par.Tiles worker pool (kernels, detector, flow,
# renderer, tracker).
race:
	$(GO) test -race ./internal/rt/ ./internal/fault/ ./internal/guard/ ./internal/sim/ \
		./internal/par/ ./internal/imgproc/ ./internal/flow/ ./internal/video/ \
		./internal/detect/ ./internal/track/ ./internal/obs/ ./internal/serve/ \
		./internal/serve/loadtest/ ./internal/chaos/

vet:
	$(GO) vet ./...

# The eight invariants DESIGN.md §9/§15 document: detrand, hotalloc,
# bandsafe, leakygo, poolpair, lockorder, atomichygiene, stagepure — the
# interprocedural ones run over the module-wide call graph. Exits non-zero
# on any finding.
lint:
	$(GO) run ./cmd/adavplint

# Compiler escape-analysis gate (DESIGN.md §15): parses `go build
# -gcflags=-m` diagnostics, attributes each heap escape to the
# //adavp:hotpath function containing it, and fails on any escape the
# committed ESCAPES.baseline does not acknowledge. Refresh the baseline
# after a justified change with `go run ./cmd/escapecheck -update`.
escapecheck:
	$(GO) run ./cmd/escapecheck

# Whole-tree statement coverage with a recorded floor: fails when total
# coverage drops below COVER_FLOOR (see the variable above for the policy).
cover:
	$(GO) test -coverprofile=$(or $(TMPDIR),/tmp)/adavp_cover.out ./...
	@total=$$($(GO) tool cover -func=$(or $(TMPDIR),/tmp)/adavp_cover.out \
		| awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' \
		|| { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# The benchmark module's tests — hook transparency, replay and the
# BENCHMARK.json table check — in the environment perfbench/run.sh builds
# in: Go caches, temporary and config files under $(PERFBENCH_OUT), no
# network, no toolchain download, read-only module graph.
PERFBENCH_OUT ?= $(CURDIR)/.bench_build
perfbench-test:
	mkdir -p $(PERFBENCH_OUT)/tmp $(PERFBENCH_OUT)/home
	cd perfbench && HOME=$(PERFBENCH_OUT)/home XDG_CONFIG_HOME=$(PERFBENCH_OUT)/home/.config \
		GOCACHE=$(PERFBENCH_OUT)/gocache GOMODCACHE=$(PERFBENCH_OUT)/gomodcache \
		GOPATH=$(PERFBENCH_OUT)/gopath GOTMPDIR=$(PERFBENCH_OUT)/tmp \
		GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
		$(GO) test ./...

# Full measurement run; results land in BENCH_pixel.json (committed, so perf
# regressions show up in review as a diff). Covers per-kernel rows at
# workers 1 and 4, the per-setting macro pipeline, and the staged pipelined
# macro-bench (frames-in-flight throughput at depth 1 vs 2-3 on 608/704).
bench-json:
	$(GO) test -run TestPixelBenchJSON -benchjson BENCH_pixel.json .

# One iteration per measurement, throwaway output: proves the harness —
# including the pipelined macro-bench — still runs end to end.
bench-json-smoke:
	$(GO) test -run TestPixelBenchJSON -benchjson-iters 1 \
		-benchjson $(or $(TMPDIR),/tmp)/adavp_bench_smoke.json .

# Serving-layer SLO benchmark: the canonical load-generator matrix (1000
# streams over 8 slots with churn, flash crowds and setting skew, batch
# sweep B=1/4/8, plus the request-bound pipelined pair at prepare depth
# 1 vs 3) into the committed BENCH_serve.json. The harness is
# virtual-clock deterministic, so the artifact only changes when the
# scheduler or latency model does — and then the diff is the review story.
# The run fails unless every batched scenario beats the unbatched baseline
# on p95 slot-wait and SLO attainment, and the pipelined scenario beats
# its sequential-prepare reference on throughput with prepare time hidden.
loadgen-bench:
	$(GO) run ./cmd/adavp-loadgen -bench -out BENCH_serve.json

# Same matrix to a throwaway file: proves the load generator, the schema
# check and the batched-beats-unbatched gate end to end (sub-second run).
loadgen-smoke:
	$(GO) run ./cmd/adavp-loadgen -bench \
		-out $(or $(TMPDIR),/tmp)/adavp_bench_serve_smoke.json

# Hostile-scenario chaos soak (DESIGN.md §13), bounded to ~90s of live soak
# on top of the deterministic sim pair, run under the race detector: 8 streams
# over 2 detector slots with scenario churn, identity churn and the full
# fault taxonomy at rate 0.08. Exits non-zero if any invariant report shows a
# violation.
soak:
	$(GO) run -race ./cmd/adavp -soak -streams 8 -detector-slots 2 \
		-churn-rate 0.25 -fault-rate 0.08 -fault-burst 2 -soak-minutes 1 -seed 1

check: build vet lint escapecheck test race bench-json-smoke loadgen-smoke

clean:
	$(GO) clean ./...
