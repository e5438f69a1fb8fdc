#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash benchmark/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`. Everything the build and the run write (Go build cache,
# binary, scratch files, traces) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local # never fetch another toolchain
go build -C "$root/benchmark" -o "$build/exadla-bench" .
exec "$build/exadla-bench" -scratch "$build" "$@"
