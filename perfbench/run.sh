#!/usr/bin/env bash
# Builds the benchmark and trex-server from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload debug-laliga --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOPATH="$root/.bench_build/gopath"
export GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(
  cd "$root/perfbench"
  go build -o "$out/perfbench" .
  go build -o "$out/trex-server" repro/cmd/trex-server
)
exec "$out/perfbench" -root "$root" -server "$out/trex-server" "$@"
