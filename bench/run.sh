#!/usr/bin/env bash
# Builds the benchmark and the linkserver binary from this checkout into
# .bench_build/ and runs one workload:
#
#   bash bench/run.sh --workload link_default --seed 1871 --seconds 25 --trace 0
#
# Every build artifact (compiler cache, module cache, go config) stays under
# .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root/bench"
go build -o "$out/bench" . >&2
go build -o "$out/linkserver" censuslink/cmd/linkserver >&2
cd "$root"
exec "$out/bench" -linkserver "$out/linkserver" -work "$out" "$@"
