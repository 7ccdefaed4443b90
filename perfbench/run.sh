#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload logs-open --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch files all stay under
# the checkout's build directory (CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
