# Tier-1 is one command: `make` runs build, the static-analysis gate, and
# the test suite — the same three steps CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build build-portable vet lint fmt-check vet-self vet-facts-determinism test test-times race fuzz bench bench-compare benchmark benchmark-selftest faultinject serve-smoke cli-smoke report-check ci

all: build lint test

build:
	$(GO) build ./...

# build-portable cross-builds and vets a non-amd64 target, so the portable
# side of the kernel build tags (tensor/*_noasm.go) keeps compiling. What it
# computes is pinned on amd64 by the ForcePortableKernels subtests. The
# training kernels are also built out at GOAMD64=v3, where the compiler fuses
# the scalar loops they must equal bit for bit (tensor/train_noasm.go); the
# tensor and nn tests run there, so those scalar bodies run in CI too.
build-portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) test ./internal/tensor/ ./internal/nn/

# lint runs the full static-analysis gate: the standard `go vet` passes
# (delegated by mpgraph-vet) plus the ten MPGraph analyzers —
# seededrand, errdrop, panicpolicy, addrhelpers, maporder, walltime, noalloc,
# lockcheck, golifetime, directive — and, over ./..., the report
# of any allow directive that silences nothing. See DESIGN.md §7. It starts
# with fmt-check, so the tree cannot drift from gofmt again.
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

test:
	$(GO) test ./...

# test-times is the tier-1 time budget (ROADMAP item 15): the wall time
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
# The two oracles of the paired model calls (models.Pair) run again at
# GOMAXPROCS 1, where a pair never posts, and 2, where a helper goroutine
# runs page calls beside the caller's delta calls. So do the lazy suite's
# pins: a model trained alone has its whole-suite bits, overlapping requests
# train each model once, and a resuming runner restores exactly the models it
# is asked for. So does the per-phase training oracle, whose jobs
# run side by side on two goroutines.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=1 -cpu 1,2 -timeout 30m ./internal/core/ ./internal/prefetch/ ./internal/experiments/ ./internal/models/ \
		-run '^(TestCSTPMatchesReference|TestVoyagerMatchesSequential|TestSuiteModelAloneBits|TestSuiteSingleFlight|TestCheckpointResumePerModel|TestPhaseJobsMatchReference)$$'

# fuzz explores past the committed seed corpora (testdata/fuzz, which every
# `go test` already replays) for a short budget. `go test -fuzz` takes one
# target in one package per run. New crashers land in the package's testdata/
# and are meant to be committed with their fix.
fuzz:
	$(GO) test ./internal/serve/ -run xxx -fuzz '^FuzzDecodeEvents$$' -fuzztime 10s
	$(GO) test ./internal/serve/ -run xxx -fuzz '^FuzzAppendPrediction$$' -fuzztime 10s
	$(GO) test ./internal/serve/ -run xxx -fuzz '^FuzzLoadReplay$$' -fuzztime 10s
	$(GO) test ./internal/models/ -run xxx -fuzz '^FuzzLoadPrefetcherModels$$' -fuzztime 10s
	$(GO) test ./internal/resilience/ -run xxx -fuzz '^FuzzParseInjector$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run xxx -fuzz '^FuzzTraceRead$$' -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz '^FuzzF16Bits$$' -fuzztime 10s
	$(GO) test ./internal/experiments/ -run xxx -fuzz '^FuzzParseWorkload$$' -fuzztime 10s
	$(GO) test ./internal/experiments/ -run xxx -fuzz '^FuzzCheckpointLoad$$' -fuzztime 10s
	$(GO) test ./internal/nn/ -run xxx -fuzz '^FuzzAdamKernel$$' -fuzztime 10s

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
# the fused residual LayerNorm, the row kernels — mean-pool, position add,
# gather + position, top-k scan, f32 score hand-off — and the top-2 decode at
# the shapes an AMMA forward runs them, the m = 1 panel product at an LSTM gate's and the two
# heads' shapes, one panel product at every shape of the served census next to
# m = 16 and m = 4 controls the window-row tiles never take, one biased
# LinearAct at the census shapes (the bias seeds the panel), one LSTM forward
# at the suite's two input widths and one AMMA delta and page call, each alone
# and as a batch of eight) take 20000 iterations for the same reason; the
# seconds-scale sweep benchmarks run once. bench-compare, and so CI's
# "Perf-regression gate" step, runs whatever KERNEL_BENCH names: a row added
# to the pattern is carried and gated with no workflow change. TRAIN_BENCH is the
# training layer (what a suite's set-up is made of): the Adam step (dense,
# sparse: an embedding table training has barely reached, clipped, and
# fallback: every tile rejects the kernel's quotient estimates) and the
# weight- and input-gradient products at 5000 iterations, a whole AMMA train step (the
# trainer's own, on its tape) at 300, and the ten-model suite at the repository
# benchmark's fixture, best of 3 — BenchmarkSuiteTrain on the GOMAXPROCS pool
# and BenchmarkSuiteTrainSerial (same pattern) on one P, so pool and tape read
# apart, and BenchmarkSuiteTrainPair, the phase-specific pair a served
# MPGraph trains. Every training row reports B/op and allocs/op. SIM_BENCH is the
# non-ML half of the pipeline, all with B/op and allocs/op: the engine alone
# and under four classic prefetchers on the repository benchmark's GPOP/PR
# trace, the three framework trace generations and the barrier merge (whole
# runs of tens of ms, best of 6 x 5), and one Operate of each of the seven
# classic prefetchers on that trace's LLC stream (500000 iterations: rows of
# 20-400 ns). SERVE_BENCH is the served path outside the model, all with
# allocs/op: the two phase detectors over 20,000 observations from a Reset,
# of a 5-PC stream and of one whose every PC is new to the window (the
# window's worst case, *Distinct), and one 64-event chunk through the HTTP
# handler on a warm session. BenchmarkKSStatistic is a reference row, not
# the served path: the detectors compute the statistic in their own sweep,
# and KSStatistic is what the tests hold that sweep to. The ops run from
# 1 µs to 25 ms, so they run for a time (0.5 s) rather than a count.
# Steps go through a file so a benchmark failure fails the target. For
# published numbers rerun with a higher -benchtime and -count (DESIGN.md §8).
KERNEL_BENCH = BenchmarkAttentionBlocks|BenchmarkResidualLayerNorm|BenchmarkMeanRowsBatch|BenchmarkAddPosBatch|BenchmarkEmbeddingPosBatch|BenchmarkFirstAbove|BenchmarkSigmoidWiden|BenchmarkTopK2of1024|BenchmarkPanel1|BenchmarkPanelShapes|BenchmarkLinearAct|BenchmarkLSTMForward|BenchmarkAMMA(Delta|Page)(F32)?(Batch8)?$$
TRAIN_BENCH = BenchmarkAdamStep|BenchmarkGemmTN|BenchmarkGemmNT|BenchmarkBackwardMLP|BenchmarkAMMADeltaTrainStep|BenchmarkAMMAPageTrainStep
SIM_BENCH = BenchmarkEngineNoPrefetch|BenchmarkEngineRun|BenchmarkClassicOperate|BenchmarkGPOPPageRankTrace|BenchmarkXStreamBFSTrace|BenchmarkPowerGraphCCTrace|BenchmarkInterleave
SERVE_BENCH = BenchmarkKSWIN|BenchmarkSoftKSWIN|BenchmarkKSStatistic|BenchmarkHandleFeed
# BENCH_STEPS is the ledger's step list, which bench and bench-compare
# share: $(call BENCH_STEPS,file) runs every step, writing the output to file.
define BENCH_STEPS
	$(GO) test ./internal/prefetch/ ./internal/core/ ./internal/models/ \
		-run xxx -bench 'BenchmarkOperate|BenchmarkSuiteSave' -benchtime 300x -count 6 \
		> $(1)
	$(GO) test ./internal/tensor/ ./internal/nn/ ./internal/models/ \
		-run xxx -bench '$(KERNEL_BENCH)' -benchtime 20000x -count 6 \
		>> $(1)
	$(GO) test ./internal/tensor/ ./internal/nn/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 5000x -count 6 \
		>> $(1)
	$(GO) test ./internal/models/ \
		-run xxx -bench '$(TRAIN_BENCH)' -benchtime 300x -count 6 \
		>> $(1)
	$(GO) test ./internal/experiments/ \
		-run xxx -bench 'BenchmarkSuiteTrain' -benchtime 1x -count 3 \
		>> $(1)
	$(GO) test ./internal/sim/ ./internal/frameworks/ ./internal/trace/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 5x -count 6 \
		>> $(1)
	$(GO) test ./internal/prefetch/ \
		-run xxx -bench '$(SIM_BENCH)' -benchtime 500000x -count 6 \
		>> $(1)
	$(GO) test ./internal/phasedet/ ./internal/serve/ \
		-run xxx -bench '$(SERVE_BENCH)' -benchtime 0.5s -count 6 \
		>> $(1)
endef

bench:
	$(call BENCH_STEPS,bench.out)
	$(GO) test ./internal/experiments/ \
		-run xxx -bench 'BenchmarkPrefetchSweep' -benchtime 1x \
		>> bench.out
	$(GO) run ./cmd/mpgraph-bench -in bench.out -o BENCH_small.json
	rm -f bench.out

# bench-compare is the perf-regression gate: rerun the Operate, kernel,
# training, simulator and serve benchmarks and fail if any benchmark is >15% slower
# in ns/op, a zero-alloc row gains a single allocation, or an allocating row
# (a train step, a suite) more than 15% of its count — against the committed
# BENCH_small.json. On a machine that differs from the one the baseline was
# measured on, the ns/op check is skipped (with a warning) and only allocation
# gains fail.
bench-compare:
	$(call BENCH_STEPS,bench-new.out)
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

# cli-smoke runs the Fig. 6 commands end to end on a tiny option set —
# mpgraph-trace -stats (on one workload of each execution model, PowerGraph's
# TC path included), mpgraph-train -o, and mpgraph-sim under BO and under
# the trained artifact — and fails on any non-zero exit. The commands are
# thin clients of experiments.Runner (DESIGN.md §3); what they compute is
# pinned by TestSnapshotMatchesRunner, this only keeps them running.
CLI_SMOKE_FLAGS = -graph-scale 8 -trace-iterations 3
cli-smoke:
	$(GO) build -o bin/ ./cmd/mpgraph-trace ./cmd/mpgraph-train ./cmd/mpgraph-sim
	./bin/mpgraph-trace $(CLI_SMOKE_FLAGS) -stats
	./bin/mpgraph-trace $(CLI_SMOKE_FLAGS) -stats -workload xstream/bfs/rmat
	./bin/mpgraph-trace $(CLI_SMOKE_FLAGS) -stats -workload powergraph/tc/rmat
	./bin/mpgraph-train $(CLI_SMOKE_FLAGS) -train-samples 100 -epochs 1 -o bin/cli-smoke.models
	./bin/mpgraph-sim $(CLI_SMOKE_FLAGS) -prefetcher bo
	./bin/mpgraph-sim $(CLI_SMOKE_FLAGS) -prefetcher mpgraph -models bin/cli-smoke.models
	rm -f bin/cli-smoke.models

# report-check regenerates the committed small-scale report (about 3 min on
# 2 vCPU) and diffs it against report_small.txt, so "the report bytes are
# unchanged" is a check rather than a claim. Fig. 13's ns/op column is a
# wall-clock reading: the last field of each line of that table (and so its
# dash line, whose width follows the column) is masked on both sides.
REPORT_MASK = awk '/^=== Figure 13/ { f = 1 } /^$$/ { f = 0 } f { sub(/ +[^ ]+$$/, "") } { print }'
report-check:
	$(GO) run ./cmd/mpgraph-experiments -run all -apps pr,cc > report-check.out
	$(REPORT_MASK) report_small.txt > report-check.want
	$(REPORT_MASK) report-check.out | diff report-check.want -
	rm -f report-check.out report-check.want

ci: build lint test race
