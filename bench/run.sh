#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed through (see bench/README.md).
#
#   bash bench/run.sh                          # all workloads, 6 rounds
#   bash bench/run.sh --workload mcf-alloy --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# under the repository root, and no module is ever downloaded.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/bench" -o "$out/alloybench" .
cd "$root"
exec "$out/alloybench" "$@"
