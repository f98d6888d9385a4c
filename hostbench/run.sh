#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# driver's command is `bash hostbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`, from the root of the checkout. Everything
# the Go toolchain writes (build and module caches, work directories) is kept
# under .bench_build, so the run touches nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

# go build is incremental: after the first run this is a cache lookup.
go build -C "$root/hostbench" -o "$build/hostbench" .

cd "$root"
exec "$build/hostbench" "$@"
