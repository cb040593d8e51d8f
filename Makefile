# Tier-1 is one command: `make` runs build, the static-analysis gate, and
# the test suite — the same three steps CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build build-portable vet lint fmt-check vet-self vet-facts-determinism vet-fix-check test test-times race fuzz bench bench-batch bench-compare benchmark benchmark-selftest faultinject serve-smoke ci

all: build lint test

build:
	$(GO) build ./...

# build-portable cross-builds and vets a non-amd64 target, so the portable
# side of the kernel build tags (tensor/*_noasm.go) keeps compiling. What it
# computes is pinned on amd64 by the ForcePortableKernels subtests. The
# training kernels are also built out at GOAMD64=v3, where the compiler fuses
# the scalar loops they must equal bit for bit (tensor/train_noasm.go).
build-portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOAMD64=v3 $(GO) build ./...

# lint runs the full static-analysis gate: the standard `go vet` passes
# (delegated by mpgraph-vet) plus the fourteen MPGraph analyzers —
# seededrand, errdrop, floateq, panicpolicy, addrhelpers, maporder,
# walltime, noalloc, lockcheck, golifetime, chansafe, ctxflow, directive,
# injectpoint. See DESIGN.md §7. It starts with fmt-check, so the tree cannot
# drift from gofmt again.
lint: fmt-check
	$(GO) run ./cmd/mpgraph-vet ./...

# fmt-check fails, naming the files, if gofmt would change any Go file outside
# testdata/ (analyzer fixtures keep the shapes they test).
fmt-check:
	@out="$$(gofmt -l . | grep -v /testdata/)"; \
	if [ -n "$$out" ]; then echo "gofmt would change:" >&2; echo "$$out" >&2; exit 1; fi

# vet-self turns the gate on its own implementation: the analysis framework,
# the CFG and call-graph layers, and the passes must hold to the same
# concurrency and determinism contracts they enforce. CI runs this step
# with -json and uploads the output as an artifact.
vet-self:
	$(GO) run ./cmd/mpgraph-vet -novet ./internal/analysis/...

# vet-facts-determinism proves the cross-package fact layer is a pure
# function of the source: export the fact dir twice and require the trees to
# be byte-identical. CI runs this step and uploads the first dir as an
# artifact next to vet-self.jsonl.
FACTS_DIR ?= /tmp/mpgraph-vet-facts
vet-facts-determinism:
	rm -rf $(FACTS_DIR)-1 $(FACTS_DIR)-2
	$(GO) run ./cmd/mpgraph-vet -novet -facts-dir $(FACTS_DIR)-1 ./...
	$(GO) run ./cmd/mpgraph-vet -novet -facts-dir $(FACTS_DIR)-2 ./...
	diff -r $(FACTS_DIR)-1 $(FACTS_DIR)-2
	rm -rf $(FACTS_DIR)-2

# vet runs only the standard passes (lint is a superset).
vet:
	$(GO) vet ./...

# vet-fix-check proves the tree is autofix-clean: run `mpgraph-vet -fix` on
# a scratch copy and fail if any file changes. A diff here means a finding
# with a suggested rewrite was committed unfixed — run the -fix mode locally
# and commit the result.
FIXCHECK_DIR ?= /tmp/mpgraph-vet-fixcheck
vet-fix-check:
	rm -rf $(FIXCHECK_DIR)
	mkdir -p $(FIXCHECK_DIR)
	tar --exclude=.git -cf - . | (cd $(FIXCHECK_DIR) && tar -xf -)
	cd $(FIXCHECK_DIR) && $(GO) run ./cmd/mpgraph-vet -novet -fix ./...
	diff -r -x .git . $(FIXCHECK_DIR)
	rm -rf $(FIXCHECK_DIR)

test:
	$(GO) test ./...

# test-times is the tier-1 time budget (ROADMAP item 1): the wall time
# `go test` reports for each package, slowest first. -count=1 because a
# cached package reports none; through a file so a test failure fails the
# target.
test-times:
	$(GO) test -count=1 ./... > test-times.out
	awk '$$1 == "ok" { print $$3 "\t" $$2 }' test-times.out | sort -rn
	rm -f test-times.out

# race is the determinism/concurrency gate. The heavy experiment tests
# shrink themselves under the detector (see experiments/race_on_test.go);
# the timeout covers the ~10x instrumentation slowdown on model training.
race:
	$(GO) test -race -timeout 30m ./...

# fuzz explores past the committed seed corpora (testdata/fuzz, which every
# `go test` already replays) for a short budget. `go test -fuzz` takes one
# target in one package per run. New crashers land in the package's testdata/
# and are meant to be committed with their fix.
fuzz:
	$(GO) test ./internal/serve/ -run xxx -fuzz '^FuzzDecodeEvents$$' -fuzztime 10s

# bench regenerates BENCH_small.json via cmd/mpgraph-bench (f32 and f16
# speedups over float64 appear in its "speedups" section). models'
# BenchmarkOperate{,F32}{,Batch8,Batch64} rows are the Delta-LSTM's model call
# (benchDeltaModel is NewLSTMDelta); an AMMA call is BenchmarkAMMA{Delta,Page}…
# under KERNEL_BENCH. The BenchmarkOperate pattern also takes in core's
# MPGraphChain{,F32} rows — the only
# Operate rows whose chains run past the first PBOT lookup (~4.6 model calls
# per Operate; the MPGraphAMMA rows sit at 2). The µs-scale
# Operate benchmarks run 6 counts of 300 iterations — mpgraph-bench keeps
# the best run per benchmark (timing noise is strictly additive), keeping
# ns/op stable enough for the bench-compare gate's 15% threshold on noisy
# (single-core VM) hosts; the kernel rows (KERNEL_BENCH: the attention block,
# the fused residual LayerNorm and the top-2 decode at the shapes an AMMA
# forward runs them, the m = 1 panel product at an LSTM gate's and the two
# heads' shapes, one panel product at every shape of the served census next to
# m = 16 and m = 4 controls the window-row tiles never take, one LSTM forward
# at the suite's two input widths and one AMMA delta and page call, each alone
# and as a batch of eight) take 20000 iterations for the same reason; the
# seconds-scale sweep benchmarks run once. bench-compare, and so CI's
# "Perf-regression gate" step, runs whatever KERNEL_BENCH names: a row added
# to the pattern is carried and gated with no workflow change. TRAIN_BENCH is the
# training layer (what a suite's set-up is made of): the Adam step (dense, and
# sparse: an embedding table training has barely reached) and the
# weight-gradient product at 5000 iterations, a whole AMMA train step (the
# trainer's own, on its tape) at 300, and the ten-model suite at the repository
# benchmark's fixture, best of 3 — BenchmarkSuiteTrain on the GOMAXPROCS pool
# and BenchmarkSuiteTrainSerial (same pattern) on one P, so pool and tape read
# apart. Every training row reports B/op and allocs/op. SIM_BENCH is the
# non-ML half of the pipeline, all with B/op and allocs/op: the engine alone
# and under four classic prefetchers on the repository benchmark's GPOP/PR
# trace, the three framework trace generations and the barrier merge (whole
# runs of tens of ms, best of 6 x 5), and one Operate of each of the seven
# classic prefetchers on that trace's LLC stream (500000 iterations: rows of
# 20-400 ns).
# Steps go through a file so a benchmark failure fails the target. For
# published numbers rerun with a higher -benchtime and -count (DESIGN.md §8).
KERNEL_BENCH = BenchmarkAttentionBlocks|BenchmarkResidualLayerNorm|BenchmarkTopK2of1024|BenchmarkPanel1|BenchmarkPanelShapes|BenchmarkLSTMForward|BenchmarkAMMA(Delta|Page)(F32)?(Batch8)?$$
TRAIN_BENCH = BenchmarkAdamStep|BenchmarkGemmTN|BenchmarkBackwardMLP|BenchmarkAMMADeltaTrainStep|BenchmarkAMMAPageTrainStep
SIM_BENCH = BenchmarkEngineNoPrefetch|BenchmarkEngineRun|BenchmarkClassicOperate|BenchmarkGPOPPageRankTrace|BenchmarkXStreamBFSTrace|BenchmarkPowerGraphCCTrace|BenchmarkInterleave
bench:
	$(GO) test ./internal/prefetch/ ./internal/core/ ./internal/models/ \
		-run xxx -bench 'BenchmarkOperate|BenchmarkSuiteSave' -benchtime 300x -count 6 \
		> bench.out
	$(GO) test ./internal/tensor/ ./internal/nn/ ./internal/models/ \
		-run xxx -bench '$(KERNEL_BENCH)' -benchtime 20000x -count 6 \
		>> bench.out
	$(GO) test ./internal/tensor/ ./internal/nn/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 5000x -count 6 \
		>> bench.out
	$(GO) test ./internal/models/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 300x -count 6 \
		>> bench.out
	$(GO) test ./internal/experiments/ \
		-run xxx -bench 'BenchmarkSuiteTrain' -benchtime 1x -count 3 \
		>> bench.out
	$(GO) test ./internal/sim/ ./internal/frameworks/ ./internal/trace/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 5x -count 6 \
		>> bench.out
	$(GO) test ./internal/prefetch/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 500000x -count 6 \
		>> bench.out
	$(GO) test ./internal/experiments/ \
		-run xxx -bench 'BenchmarkPrefetchSweep' -benchtime 1x \
		>> bench.out
	$(GO) run ./cmd/mpgraph-bench -in bench.out -o BENCH_small.json
	rm -f bench.out

# bench-batch is the batched-tier smoke: run the OperateBatch{8,64} rows
# (batched next to sequential) once through mpgraph-bench
# (DESIGN.md §11). CI runs this with -benchtime 1x and uploads the report;
# the committed BENCH_small.json carries the 300x numbers via `make bench`.
BENCH_BATCH_TIME ?= 1x
bench-batch:
	$(GO) test ./internal/models/ \
		-run xxx -bench 'BenchmarkOperateBatch' -benchtime $(BENCH_BATCH_TIME) \
		> bench-batch.out
	$(GO) run ./cmd/mpgraph-bench -in bench-batch.out -o BENCH_batch.json
	rm -f bench-batch.out

# bench-compare is the perf-regression gate: rerun the Operate, kernel,
# training and simulator benchmarks and fail if any benchmark is >15% slower
# in ns/op, a zero-alloc row gains a single allocation, or an allocating row
# (a train step, a suite) more than 15% of its count — against the committed
# BENCH_small.json. On a machine that differs from the one the baseline was
# measured on, the ns/op check is skipped (with a warning) and only allocation
# gains fail.
bench-compare:
	$(GO) test ./internal/prefetch/ ./internal/core/ ./internal/models/ \
		-run xxx -bench 'BenchmarkOperate|BenchmarkSuiteSave' -benchtime 300x -count 6 \
		> bench-new.out
	$(GO) test ./internal/tensor/ ./internal/nn/ ./internal/models/ \
		-run xxx -bench '$(KERNEL_BENCH)' -benchtime 20000x -count 6 \
		>> bench-new.out
	$(GO) test ./internal/tensor/ ./internal/nn/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 5000x -count 6 \
		>> bench-new.out
	$(GO) test ./internal/models/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 300x -count 6 \
		>> bench-new.out
	$(GO) test ./internal/experiments/ \
		-run xxx -bench 'BenchmarkSuiteTrain' -benchtime 1x -count 3 \
		>> bench-new.out
	$(GO) test ./internal/sim/ ./internal/frameworks/ ./internal/trace/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 5x -count 6 \
		>> bench-new.out
	$(GO) test ./internal/prefetch/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 500000x -count 6 \
		>> bench-new.out
	$(GO) run ./cmd/mpgraph-bench -in bench-new.out -o BENCH_new.json
	$(GO) run ./cmd/mpgraph-bench -compare BENCH_small.json BENCH_new.json
	rm -f bench-new.out BENCH_new.json

# benchmark runs the repository benchmark (BENCHMARK.json): all five
# workloads end to end, each in its own child process. benchmark/ is a Go
# module of its own, so `go test ./...` does not reach it: benchmark-selftest
# runs its tests (see benchmark/README.md).
benchmark:
	bash benchmark/run.sh -all

benchmark-selftest:
	$(GO) test -C benchmark ./...

# faultinject is the robustness gate (DESIGN.md §9): the resilience package
# suite plus the fault-armed pipeline tests — cell retry after injected
# failures, crash-resume byte-identity, checkpoint corruption handling, and
# guarded-prefetcher degradation. The guarded-sweep test exports its
# degradation event log to degrade-events.log (CI uploads it as an artifact).
faultinject:
	$(GO) test -count=1 ./internal/resilience/
	MPGRAPH_DEGRADE_LOG=$(CURDIR)/degrade-events.log $(GO) test -count=1 \
		./internal/prefetch/ ./internal/experiments/ \
		-run 'TestGuarded|TestCellRetry|TestCrashResume|TestForEachIndexRecovers|TestCheckpoint'

# serve-smoke is the serving-daemon gate (DESIGN.md §12): boot mpgraph-serve
# on a tiny suite with session faults armed, drive 200 closed-loop loadgen
# sessions, SIGTERM, and verify a clean drain plus the goroutine leak-check.
# The degradation log lands in serve-degrade.log (CI uploads it).
serve-smoke:
	$(GO) build -o bin/mpgraph-serve ./cmd/mpgraph-serve
	$(GO) build -o bin/mpgraph-loadgen ./cmd/mpgraph-loadgen
	./scripts/serve_smoke.sh

ci: build lint vet-fix-check test race
