#!/usr/bin/env bash
# Builds the benchmark program from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload compile-corpus --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, go command
# config and telemetry, the binary) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
