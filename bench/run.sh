#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload suite_analyze --seed 1 --seconds 20 --trace 0
#
# Everything the benchmark builds or writes, the Go build cache included,
# stays under the build directory: $CARGO_TARGET_DIR if set, else
# .bench_build. The last line of standard output is the result as JSON.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export CARGO_TARGET_DIR=$build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
