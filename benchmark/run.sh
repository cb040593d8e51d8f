#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver appends
# --workload <name> --seed <n> --seconds <s> --trace <0|1>.
#
# Everything the build writes stays inside the checkout: the Go build cache
# and the binary live in .bench_build/ at the repository root (ignored by
# git), the traces in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOWORK=off

# The benchmark is a module of its own (benchmark/go.mod) that imports the
# repository's packages through a replace directive, so this fails — with a
# non-zero exit and no result — where the repository is absent.
(cd "$here" && go build -o "$build/mpgraph-benchmark" .) >&2

cd "$root"
exec "$build/mpgraph-benchmark" "$@"
