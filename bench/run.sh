#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, module cache, its own
# configuration) is kept under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOBIN

(cd "$root/bench" && go build -o "$build/iqn-bench" .)
cd "$root"
exec "$build/iqn-bench" "$@"
