#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash vdcebench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#   bash vdcebench/run.sh compare base.jsonl head.jsonl
#
# The Go build cache and the binary live in .bench_build/, so nothing is
# written outside the checkout and nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/vdcebench" && go build -o "$build/vdcebench" .)
cd "$root"
exec "$build/vdcebench" "$@"
