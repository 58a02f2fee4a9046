#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's span files all go under .bench_build/ in that directory, and
# the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

rev=$(git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out" "$@"
