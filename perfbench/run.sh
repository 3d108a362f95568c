#!/usr/bin/env bash
# Builds the benchmark and the yafim binary its dist workers run, from
# source, into .bench_build/ at the repository root, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload t10-yafim --seed 2014 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/yafim" yafim/cmd/yafim) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
