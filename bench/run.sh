#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into the
# checkout's .bench_build (Go's build cache included, so nothing is
# written outside the checkout) and run it with the arguments given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/eewa-bench" ./bench
exec "$build/eewa-bench" "$@"
