#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload congested-ports --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain and the benchmark write goes under
# .bench_build/ at the repository root: build cache, binary, CPU profiles.
# Without the parent module next to perfbench/ the build fails, and so does
# this script, before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/perfbench"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
