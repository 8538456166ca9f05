#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given flags, keeping the build cache and all run files under
# .bench_build in the current directory (the repository root).
set -euo pipefail
root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command also writes telemetry counters under the user config
# directory and may use GOPATH; both are pointed into .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench_dir" && go build -o "$out/fcaebench" .)
exec "$out/fcaebench" --workdir "$out" "$@"
